//! Exporters over a sampled [`crate::TimeSeries`].
//!
//! Three built-in formats (the vendor-shim build has no serde, so JSON is
//! hand-rolled):
//!
//! * [`csv`] — one row per window, ready for plotting;
//! * [`json`] — a structured document (also the workspace's generic JSON
//!   writer, reused by `RunReport`'s `--json` output);
//! * [`prometheus`] — text exposition format of the closing totals plus a
//!   parser for round-trip tests and scrape tooling.

pub mod csv;
pub mod json;
pub mod prometheus;

#[cfg(test)]
mod tests {
    use super::{csv, json, prometheus};
    use crate::sampler::{CounterSnapshot, Sampler};
    use metronome_sim::Nanos;

    #[test]
    fn all_exporters_render_the_same_series() {
        let mut s = Sampler::new(Nanos::from_millis(1));
        let mut snap = CounterSnapshot::new(Nanos::from_millis(1));
        snap.retrieved = 99;
        s.sample(snap);
        let ts = s.into_series();
        for (format, out) in [
            ("csv", csv::timeseries_csv(&ts)),
            ("json", json::timeseries_json(&ts).render()),
            (
                "prometheus",
                prometheus::render(&prometheus::snapshot_metrics(&ts.totals)),
            ),
        ] {
            assert!(out.contains("99"), "{format} output missing data");
        }
    }
}
