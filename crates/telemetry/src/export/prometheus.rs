//! Prometheus text exposition format: render and parse.
//!
//! The render side emits the standard `# HELP` / `# TYPE` preamble and
//! one sample line per labelled value — what a `/metrics` endpoint would
//! serve. The parse side reads the same subset back (names, labels with
//! escaped values, finite float values, counter/gauge types), which gives
//! the exporter a round-trip test and downstream tooling a scrape parser
//! that doesn't need a Prometheus server.

use crate::sampler::CounterSnapshot;
use metronome_sim::stats::Histogram;

/// Metric type, per the exposition format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PromKind {
    /// Monotone cumulative counter.
    Counter,
    /// Instantaneous value.
    Gauge,
}

impl PromKind {
    fn as_str(self) -> &'static str {
        match self {
            PromKind::Counter => "counter",
            PromKind::Gauge => "gauge",
        }
    }
}

/// One labelled sample of a metric.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Label pairs, in order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A metric family: name, help, type, and its samples.
#[derive(Clone, Debug, PartialEq)]
pub struct PromMetric {
    /// Metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// Free-text help line.
    pub help: String,
    /// Counter or gauge.
    pub kind: PromKind,
    /// The samples.
    pub samples: Vec<PromSample>,
}

impl PromMetric {
    /// A metric with one unlabelled sample.
    pub fn scalar(name: &str, help: &str, kind: PromKind, value: f64) -> Self {
        PromMetric {
            name: name.into(),
            help: help.into(),
            kind,
            samples: vec![PromSample {
                labels: Vec::new(),
                value,
            }],
        }
    }

    /// A metric with one sample per queue, labelled `queue="<i>"`.
    pub fn per_queue(name: &str, help: &str, kind: PromKind, values: &[f64]) -> Self {
        PromMetric {
            name: name.into(),
            help: help.into(),
            kind,
            samples: values
                .iter()
                .enumerate()
                .map(|(q, &v)| PromSample {
                    labels: vec![("queue".into(), q.to_string())],
                    value: v,
                })
                .collect(),
        }
    }
}

/// Render metric families in the text exposition format.
pub fn render(metrics: &[PromMetric]) -> String {
    let mut out = String::new();
    for m in metrics {
        // The exposition format requires escaping `\` and newlines in
        // help text — unescaped, a multi-line help would masquerade as a
        // sample line and break the round-trip.
        let help = m.help.replace('\\', "\\\\").replace('\n', "\\n");
        out.push_str(&format!("# HELP {} {help}\n", m.name));
        out.push_str(&format!("# TYPE {} {}\n", m.name, m.kind.as_str()));
        for s in &m.samples {
            out.push_str(&m.name);
            if !s.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(k);
                    out.push_str("=\"");
                    for c in v.chars() {
                        match c {
                            '\\' => out.push_str("\\\\"),
                            '"' => out.push_str("\\\""),
                            '\n' => out.push_str("\\n"),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                out.push('}');
            }
            out.push(' ');
            if s.value.is_finite() {
                if s.value == s.value.trunc() && s.value.abs() < 1e15 {
                    out.push_str(&format!("{}", s.value as i64));
                } else {
                    out.push_str(&format!("{:?}", s.value));
                }
            } else {
                out.push_str("NaN");
            }
            out.push('\n');
        }
    }
    out
}

/// Parse text in the exposition format back into metric families.
///
/// Supports the subset [`render`] emits: `# HELP` / `# TYPE` preambles,
/// optional labels with escaped values, float sample values. Unknown
/// comment lines are skipped; a sample line for a metric with no `# TYPE`
/// preamble defaults to gauge.
pub fn parse(text: &str) -> Result<Vec<PromMetric>, String> {
    let mut metrics: Vec<PromMetric> = Vec::new();
    let find = |metrics: &mut Vec<PromMetric>, name: &str| -> usize {
        match metrics.iter().position(|m| m.name == name) {
            Some(i) => i,
            None => {
                metrics.push(PromMetric {
                    name: name.into(),
                    help: String::new(),
                    kind: PromKind::Gauge,
                    samples: Vec::new(),
                });
                metrics.len() - 1
            }
        }
    };
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {raw}", ln + 1);
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            let i = find(&mut metrics, name);
            metrics[i].help = unescape_help(help);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').ok_or_else(|| err("malformed TYPE"))?;
            let kind = match kind.trim() {
                "counter" => PromKind::Counter,
                "gauge" => PromKind::Gauge,
                other => return Err(err(&format!("unsupported metric type '{other}'"))),
            };
            let i = find(&mut metrics, name);
            metrics[i].kind = kind;
        } else if line.starts_with('#') {
            continue; // other comments
        } else {
            // Sample line: name[{labels}] value
            let (head, value) = line
                .rsplit_once(|c: char| c.is_whitespace())
                .ok_or_else(|| err("missing value"))?;
            let value: f64 = value.parse().map_err(|_| err("bad value"))?;
            let (name, labels) = match head.find('{') {
                Some(open) => {
                    let name = &head[..open];
                    let body = head[open..]
                        .strip_prefix('{')
                        .and_then(|s| s.strip_suffix('}'))
                        .ok_or_else(|| err("unterminated label set"))?;
                    (name, parse_labels(body).map_err(|m| err(&m))?)
                }
                None => (head.trim_end(), Vec::new()),
            };
            let i = find(&mut metrics, name);
            metrics[i].samples.push(PromSample { labels, value });
        }
    }
    Ok(metrics)
}

/// Undo [`render`]'s help-text escaping (`\\` and `\n`).
fn unescape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    let mut chars = help.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        // Skip separators / trailing comma.
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label '{key}' value not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err("unterminated label value".into()),
            }
        }
        labels.push((key, value));
    }
}

/// Render a log-bucketed [`Histogram`] of nanosecond values as the
/// standard Prometheus histogram trio: `{name}_bucket` cumulative
/// counters with `le` labels in *seconds*, `{name}_sum` (seconds), and
/// `{name}_count`. Each `le` is the exclusive upper bound of a
/// log-linear bucket, closed by the mandatory `+Inf` bucket; by
/// construction `{name}_bucket{{le="+Inf"}} == {name}_count` and
/// `{name}_sum` is the exact sum of recorded values.
pub fn histogram_families(name: &str, help: &str, h: &Histogram) -> Vec<PromMetric> {
    let mut cumulative = 0u64;
    let mut buckets: Vec<PromSample> = h
        .iter_spans()
        .map(|(_, high, c)| {
            cumulative += c;
            PromSample {
                labels: vec![("le".into(), format!("{:?}", high as f64 / 1e9))],
                value: cumulative as f64,
            }
        })
        .collect();
    buckets.push(PromSample {
        labels: vec![("le".into(), "+Inf".into())],
        value: h.count() as f64,
    });
    vec![
        PromMetric {
            name: format!("{name}_bucket"),
            help: help.into(),
            kind: PromKind::Counter,
            samples: buckets,
        },
        PromMetric::scalar(
            &format!("{name}_sum"),
            help,
            PromKind::Counter,
            h.sum() as f64 / 1e9,
        ),
        PromMetric::scalar(
            &format!("{name}_count"),
            help,
            PromKind::Counter,
            h.count() as f64,
        ),
    ]
}

/// The standard metric families for one cumulative snapshot, prefixed
/// `metronome_` — what a live `/metrics` scrape of a running instance
/// would serve. When the snapshot carries a retrieval-discipline label,
/// every sample gains a `system="<discipline>"` label so scrapes from
/// different disciplines stay distinguishable side by side.
pub fn snapshot_metrics(snap: &CounterSnapshot) -> Vec<PromMetric> {
    let per_queue_f64 = |v: &[u64]| -> Vec<f64> { v.iter().map(|&x| x as f64).collect() };
    let mut metrics = vec![
        PromMetric::scalar(
            "metronome_retrieved_packets_total",
            "Packets retrieved and processed",
            PromKind::Counter,
            snap.retrieved as f64,
        ),
        PromMetric::scalar(
            "metronome_dropped_ring_packets_total",
            "Packets tail-dropped at the Rx rings",
            PromKind::Counter,
            snap.dropped_ring as f64,
        ),
        PromMetric::scalar(
            "metronome_dropped_pool_packets_total",
            "Packets lost to mempool exhaustion",
            PromKind::Counter,
            snap.dropped_pool as f64,
        ),
        PromMetric::scalar(
            "metronome_dropped_fault_packets_total",
            "Packets suppressed by injected faults",
            PromKind::Counter,
            snap.dropped_fault as f64,
        ),
        PromMetric::scalar(
            "metronome_wakeups_total",
            "Worker timer wake-ups",
            PromKind::Counter,
            snap.wakeups as f64,
        ),
        PromMetric::scalar(
            "metronome_busy_seconds_total",
            "Worker awake time, summed over workers",
            PromKind::Counter,
            snap.busy_nanos as f64 / 1e9,
        ),
        PromMetric::scalar(
            "metronome_sleep_seconds_total",
            "Worker asleep time, summed over workers",
            PromKind::Counter,
            snap.sleep_nanos as f64 / 1e9,
        ),
        PromMetric::scalar(
            "metronome_oversleep_seconds_total",
            "Measured sleep-service oversleep, summed over workers",
            PromKind::Counter,
            snap.oversleep_nanos as f64 / 1e9,
        ),
        PromMetric::per_queue(
            "metronome_ts_microseconds",
            "Current adaptive short timeout TS per queue",
            PromKind::Gauge,
            &snap
                .ts_ns
                .iter()
                .map(|&ns| ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
        PromMetric::per_queue(
            "metronome_rho",
            "Smoothed per-queue load estimate",
            PromKind::Gauge,
            &snap.rho,
        ),
        PromMetric::per_queue(
            "metronome_ring_occupancy",
            "Rx ring occupancy per queue",
            PromKind::Gauge,
            &per_queue_f64(&snap.occupancy),
        ),
        PromMetric::scalar(
            "metronome_mempool_in_use",
            "Mempool buffers currently handed out",
            PromKind::Gauge,
            snap.pool_in_use as f64,
        ),
        PromMetric::scalar(
            "metronome_mempool_cached",
            "Mempool buffers parked in per-worker caches",
            PromKind::Gauge,
            snap.pool_cached as f64,
        ),
    ];
    if let Some(ns) = snap.timer_slack_ns {
        metrics.push(PromMetric::scalar(
            "metronome_timer_slack_seconds",
            "Process timer slack when the worker set spawned",
            PromKind::Gauge,
            ns as f64 / 1e9,
        ));
    }
    // Flight-recorder histogram series (only when tracing is on).
    if let Some(h) = &snap.wake_latency {
        metrics.extend(histogram_families(
            "metronome_wake_latency_seconds",
            "Wake-to-first-poll latency",
            h,
        ));
    }
    if let Some(h) = &snap.oversleep_hist {
        metrics.extend(histogram_families(
            "metronome_oversleep_seconds",
            "Per-sleep oversleep; the sum equals metronome_oversleep_seconds_total",
            h,
        ));
    }
    if let Some(h) = &snap.sched_delay {
        metrics.extend(histogram_families(
            "metronome_sched_delay_seconds",
            "Executor ready-to-scheduled delay",
            h,
        ));
    }
    // Generator pacing check and end-to-end packet latency (present
    // whenever the wall-clock generator runs, independent of tracing).
    // Both are per packet, against the packet's *scheduled* arrival, on
    // the scenario runner and the daemon alike.
    if let Some(h) = &snap.gen_jitter {
        metrics.extend(histogram_families(
            "metronome_gen_jitter_seconds",
            "How late each packet was offered, against its scheduled arrival",
            h,
        ));
    }
    if let Some(h) = &snap.latency {
        metrics.extend(histogram_families(
            "metronome_packet_latency_seconds",
            "Scheduled arrival to processing completion, per packet",
            h,
        ));
    }
    if !snap.discipline.is_empty() {
        for m in &mut metrics {
            for s in &mut m.samples {
                s.labels
                    .insert(0, ("system".into(), snap.discipline.into()));
            }
        }
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use metronome_sim::Nanos;

    #[test]
    fn render_parse_round_trip() {
        let metrics = vec![
            PromMetric::scalar("m_total", "a counter", PromKind::Counter, 12345.0),
            PromMetric::scalar("m_help", "multi\nline \\ help", PromKind::Gauge, 1.0),
            PromMetric::per_queue("m_gauge", "per queue", PromKind::Gauge, &[1.5, 0.25, 3.0]),
            PromMetric {
                name: "m_tricky".into(),
                help: "labels with escapes".into(),
                kind: PromKind::Gauge,
                samples: vec![PromSample {
                    labels: vec![("app".into(), "l3\"fwd\\x".into())],
                    value: -0.5,
                }],
            },
        ];
        let text = render(&metrics);
        let back = parse(&text).expect("parse what we rendered");
        assert_eq!(back, metrics);
    }

    #[test]
    fn snapshot_metrics_round_trip() {
        let mut snap = CounterSnapshot::new(Nanos::from_secs(1));
        snap.retrieved = 1_000_000;
        snap.dropped_ring = 17;
        snap.wakeups = 42_000;
        snap.busy_nanos = 250_000_000;
        snap.ts_ns = vec![17_500, 28_000];
        snap.rho = vec![0.83, 0.12];
        snap.occupancy = vec![3, 0];
        snap.pool_in_use = 64;
        snap.timer_slack_ns = Some(50_000);
        let metrics = snapshot_metrics(&snap);
        let text = render(&metrics);
        let back = parse(&text).expect("valid exposition text");
        assert_eq!(back, metrics);
        // Spot-check the text itself.
        assert!(text.contains("# TYPE metronome_timer_slack_seconds gauge"));
        assert!(text.contains("metronome_timer_slack_seconds 5e-5"));
        assert!(text.contains("# TYPE metronome_retrieved_packets_total counter"));
        assert!(text.contains("metronome_retrieved_packets_total 1000000"));
        assert!(text.contains("metronome_ts_microseconds{queue=\"1\"} 28"));
        assert!(text.contains("metronome_rho{queue=\"0\"} 0.83"));
    }

    #[test]
    fn discipline_label_round_trips_as_system() {
        let mut snap = CounterSnapshot::new(Nanos::from_secs(1));
        snap.discipline = "busy-poll";
        snap.retrieved = 7;
        snap.ts_ns = vec![10_000];
        snap.rho = vec![0.5];
        snap.occupancy = vec![1];
        let metrics = snapshot_metrics(&snap);
        let text = render(&metrics);
        let back = parse(&text).expect("valid exposition text");
        assert_eq!(back, metrics);
        assert!(text.contains("metronome_retrieved_packets_total{system=\"busy-poll\"} 7"));
        // Per-queue samples carry both labels, system first.
        assert!(text.contains("metronome_rho{system=\"busy-poll\",queue=\"0\"} 0.5"));
    }

    #[test]
    fn histogram_families_expose_buckets_sum_count() {
        let mut h = Histogram::latency();
        for v in [1_000u64, 5_000, 5_000, 2_000_000] {
            h.record(v);
        }
        let fams = histogram_families("metronome_wake_latency_seconds", "wake latency", &h);
        assert_eq!(fams.len(), 3);
        let bucket = &fams[0];
        assert_eq!(bucket.name, "metronome_wake_latency_seconds_bucket");
        // Cumulative counts are nondecreasing and close at +Inf == count.
        let mut prev = 0.0;
        for s in &bucket.samples {
            assert!(s.value >= prev, "bucket counts must be cumulative");
            prev = s.value;
        }
        let inf = bucket.samples.last().unwrap();
        assert_eq!(inf.labels[0], ("le".into(), "+Inf".into()));
        assert_eq!(inf.value, 4.0);
        assert_eq!(fams[2].samples[0].value, 4.0, "_count matches");
        let sum_s = fams[1].samples[0].value;
        assert!((sum_s - 2_011_000.0 / 1e9).abs() < 1e-12, "_sum is exact");
        // The whole trio survives a render/parse round trip.
        let text = render(&fams);
        assert_eq!(parse(&text).expect("valid exposition text"), fams);
    }

    #[test]
    fn snapshot_metrics_include_trace_histograms_when_present() {
        let mut snap = CounterSnapshot::new(Nanos::from_secs(1));
        snap.ts_ns = vec![10_000];
        snap.rho = vec![0.5];
        snap.occupancy = vec![0];
        let bare = render(&snapshot_metrics(&snap));
        assert!(!bare.contains("wake_latency"));
        assert!(!bare.contains("gen_jitter"));
        assert!(!bare.contains("packet_latency"));
        let mut h = Histogram::latency();
        h.record(3_000);
        snap.latency = Some(h.clone());
        snap.wake_latency = Some(h.clone());
        snap.oversleep_hist = Some(h.clone());
        snap.sched_delay = Some(h.clone());
        snap.gen_jitter = Some(h);
        snap.oversleep_nanos = 3_000;
        let text = render(&snapshot_metrics(&snap));
        assert!(text.contains("metronome_wake_latency_seconds_bucket"));
        assert!(text.contains("metronome_oversleep_seconds_sum"));
        assert!(text.contains("metronome_sched_delay_seconds_count"));
        assert!(text.contains("metronome_gen_jitter_seconds_bucket"));
        assert!(text.contains("metronome_packet_latency_seconds_count"));
        // The oversleep histogram sum reconciles with the counter total.
        let metrics = parse(&text).unwrap();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .samples[0]
                .value
        };
        assert_eq!(
            get("metronome_oversleep_seconds_sum"),
            get("metronome_oversleep_seconds_total")
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("# TYPE m histogram\nm 1\n").is_err());
        assert!(parse("m_no_value\n").is_err());
        assert!(parse("m{x=\"unterminated} 1\n").is_err());
    }

    #[test]
    fn parse_skips_unknown_comments_and_blank_lines() {
        let text = "# EOF-ish comment\n\nm 3\n";
        let m = parse(text).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].samples[0].value, 3.0);
        assert_eq!(m[0].kind, PromKind::Gauge); // defaulted
    }
}
