//! Spans recorded by the benchmark's own code around its calls into each
//! layer (spans inside the program are a later issue). They stay in
//! memory while a leg runs and are written out once, at exit, as Chrome
//! trace-event JSON for Perfetto.

use metronome_apps::processor::{BurstVerdicts, PacketProcessor, Verdict};
use metronome_dpdk::Mbuf;
use metronome_telemetry::Json;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Most `process_burst` spans written to `--trace-out` per queue (a
/// 1 Mpps leg records millions; Perfetto does not need them all to show
/// the shape). The count left out is written into the file's metadata.
const MAX_WRITTEN_PER_QUEUE: usize = 100_000;

/// One interval on the bench's timeline: a leg, or one stage of one
/// batch in the stage leg.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What ran (a leg or stage name).
    pub name: &'static str,
    /// The span that caused this one (a leg name; `""` for a leg itself).
    pub parent: &'static str,
    /// Shared by the spans of one unit of work (the batch index).
    pub id: u64,
    /// Packets the span covered.
    pub packets: u32,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

/// One `process_burst` call, kept compact: a 1 Mpps leg records millions.
/// Its id is its index in the queue's vector, its parent the runner leg.
#[derive(Clone, Copy, Debug)]
pub struct BurstSpan {
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Length, nanoseconds.
    pub dur_ns: u32,
    /// Packets in the burst.
    pub packets: u32,
}

/// Totals over every recorded `process_burst` span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BurstTotals {
    /// `process_burst` calls.
    pub bursts: u64,
    /// Packets they covered.
    pub packets: u64,
    /// Summed span time, nanoseconds.
    pub busy_ns: u64,
    /// Packets whose verdict was not forward.
    pub not_forwarded: u64,
}

#[derive(Default)]
struct Recorded {
    spans: Vec<Span>,
    /// Per queue, its `process_burst` spans in call order.
    bursts: Vec<(usize, Vec<BurstSpan>)>,
    not_forwarded: u64,
}

/// The in-memory span store of one invocation.
pub struct SpanLog {
    epoch: Instant,
    recorded: Mutex<Recorded>,
}

impl SpanLog {
    /// An empty log whose timeline starts now.
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            recorded: Mutex::default(),
        })
    }

    fn recorded(&self) -> MutexGuard<'_, Recorded> {
        self.recorded
            .lock()
            .expect("span log poisoned: a recording thread panicked")
    }

    /// Nanoseconds since the log's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record the leg `name`, which began at `start_ns` and ends now.
    pub fn leg(&self, name: &'static str, start_ns: u64, packets: u64) {
        let end_ns = self.now_ns();
        self.recorded().spans.push(Span {
            name,
            parent: "",
            id: 0,
            packets: packets.min(u32::MAX as u64) as u32,
            start_ns,
            end_ns,
        });
    }

    /// Record finished spans.
    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.recorded().spans.extend(spans);
    }

    /// Totals over the `process_burst` spans recorded so far.
    pub fn burst_totals(&self) -> BurstTotals {
        let recorded = self.recorded();
        let mut totals = BurstTotals {
            not_forwarded: recorded.not_forwarded,
            ..BurstTotals::default()
        };
        for span in recorded.bursts.iter().flat_map(|(_, spans)| spans) {
            totals.bursts += 1;
            totals.packets += span.packets as u64;
            totals.busy_ns += span.dur_ns as u64;
        }
        totals
    }

    /// The log as a Chrome trace-event document: one complete (`"X"`)
    /// event per span, `ts`/`dur` in microseconds; name, id, parent and
    /// packet count ride along. Legs and stages draw on track 0, each
    /// queue's bursts on track `queue + 1`.
    pub fn chrome_json(&self, label: &str) -> Json {
        let event = |name: &str,
                     parent: &str,
                     track: usize,
                     id: u64,
                     packets: u32,
                     start: u64,
                     dur: u64| {
            Json::obj()
                .with("name", name)
                .with("cat", if parent.is_empty() { "leg" } else { parent })
                .with("ph", "X")
                .with("pid", 1u64)
                .with("tid", track)
                .with("ts", start as f64 / 1e3)
                .with("dur", dur as f64 / 1e3)
                .with(
                    "args",
                    Json::obj()
                        .with("id", id)
                        .with("parent", parent)
                        .with("packets", packets as u64),
                )
        };
        let recorded = self.recorded();
        let mut events = vec![Json::obj()
            .with("name", "process_name")
            .with("ph", "M")
            .with("pid", 1u64)
            .with("tid", 0u64)
            .with("args", Json::obj().with("name", label))];
        events.extend(recorded.spans.iter().map(|s| {
            let dur = s.end_ns - s.start_ns;
            event(s.name, s.parent, 0, s.id, s.packets, s.start_ns, dur)
        }));
        let mut omitted = 0;
        for (queue, spans) in &recorded.bursts {
            omitted += spans.len().saturating_sub(MAX_WRITTEN_PER_QUEUE);
            events.extend(
                spans
                    .iter()
                    .take(MAX_WRITTEN_PER_QUEUE)
                    .enumerate()
                    .map(|(id, s)| {
                        event(
                            "process_burst",
                            "runner_leg",
                            queue + 1,
                            id as u64,
                            s.packets,
                            s.start_ns,
                            s.dur_ns as u64,
                        )
                    }),
            );
        }
        Json::obj()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", "ns")
            .with(
                "metadata",
                Json::obj().with("process_burst_spans_omitted", omitted),
            )
    }
}

/// Wraps a queue's real processor and records one span per
/// `process_burst` — the `apps` layer boundary as the runner crosses it.
/// Spans collect in a queue-local vector (the runner calls a queue's
/// processor from one worker at a time) and move to the shared log when
/// the runner drops the processor at the end of the run.
pub struct SpanProcessor {
    inner: Box<dyn PacketProcessor>,
    queue: usize,
    log: Arc<SpanLog>,
    spans: Vec<BurstSpan>,
    /// Packets the inner processor did not forward. The generated flows
    /// are routable by construction, so any is a correctness failure.
    not_forwarded: u64,
}

impl SpanProcessor {
    /// Wrap `inner`, the processor of `queue`.
    pub fn new(inner: Box<dyn PacketProcessor>, queue: usize, log: &Arc<SpanLog>) -> SpanProcessor {
        SpanProcessor {
            inner,
            queue,
            log: Arc::clone(log),
            spans: Vec::with_capacity(1 << 16),
            not_forwarded: 0,
        }
    }
}

impl PacketProcessor for SpanProcessor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cycles_per_packet(&self) -> u64 {
        self.inner.cycles_per_packet()
    }

    fn cycles_per_burst(&self) -> u64 {
        self.inner.cycles_per_burst()
    }

    fn process(&mut self, mbuf: &mut Mbuf) -> Verdict {
        self.inner.process(mbuf)
    }

    fn process_burst(&mut self, mbufs: &mut [Mbuf]) -> BurstVerdicts {
        let start_ns = self.log.now_ns();
        let verdicts = self.inner.process_burst(mbufs);
        let dur_ns = self.log.now_ns() - start_ns;
        self.not_forwarded += verdicts.dropped;
        self.spans.push(BurstSpan {
            start_ns,
            dur_ns: dur_ns.min(u32::MAX as u64) as u32,
            packets: mbufs.len() as u32,
        });
        verdicts
    }
}

impl Drop for SpanProcessor {
    fn drop(&mut self) {
        // Never panic in drop: if the log is poisoned the panic that
        // poisoned it is already being reported.
        if let Ok(mut recorded) = self.log.recorded.lock() {
            recorded
                .bursts
                .push((self.queue, std::mem::take(&mut self.spans)));
            recorded.not_forwarded += self.not_forwarded;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metronome_apps::L3Fwd;

    #[test]
    fn processor_spans_reach_the_log_on_drop() {
        let log = SpanLog::new();
        let mut p = SpanProcessor::new(Box::new(L3Fwd::with_sample_routes(4)), 3, &log);
        // An empty frame does not parse: l3fwd drops it.
        let mut burst = vec![Mbuf::from_bytes(bytes::BytesMut::new())];
        assert_eq!(p.process_burst(&mut burst).dropped, 1);
        assert_eq!(log.burst_totals(), BurstTotals::default());
        drop(p);
        let totals = log.burst_totals();
        assert_eq!(
            (totals.bursts, totals.packets, totals.not_forwarded),
            (1, 1, 1)
        );

        log.leg("runner_leg", 0, 1);
        let parsed = Json::parse(&log.chrome_json("test").render()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("leg"));
        assert_eq!(
            events[2].get("name").unwrap().as_str(),
            Some("process_burst")
        );
        assert_eq!(events[2].get("tid").unwrap().as_u64(), Some(4));
    }
}
