//! `BENCHMARK.json` is the one place metric names, units, directions and
//! bounds are written down. The benchmark reads it (with the repo's own
//! JSON reader) instead of repeating it: `--list` prints it, every
//! emitted value takes its unit from it, and a run that sets a name the
//! file lacks — or leaves one of the file's names unset — fails.

use metronome_telemetry::Json;
use std::path::PathBuf;

/// One metric declared in `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark declaration.
#[derive(Clone, Debug)]
pub struct Spec {
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// Metrics a `--trace 0` run reports.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics a `--trace 1` run reports.
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one driver run measures.
    pub run_seconds: u64,
}

impl Spec {
    /// Load `BENCHMARK.json` from the working directory (the driver runs
    /// from the checkout root) or, failing that, from the repo this
    /// binary was built in.
    pub fn load() -> Result<Spec, String> {
        let candidates = [
            PathBuf::from("BENCHMARK.json"),
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")),
        ];
        let text = candidates
            .iter()
            .find_map(|p| std::fs::read_to_string(p).ok())
            .ok_or("BENCHMARK.json not found in the working directory or the source repo")?;
        Spec::parse(&text)
    }

    /// Parse the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: missing array '{key}'"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: missing 'run_seconds'")?,
        })
    }

    /// The `--list` text: workloads with their reasons, then every metric
    /// with unit, direction and bound.
    pub fn listing(&self) -> String {
        let mut out = String::from("workloads:\n");
        for (name, why) in &self.workloads {
            out.push_str(&format!("  {name:<12} {why}\n"));
        }
        for (title, metrics) in [
            ("end-to-end metrics (--trace 0)", &self.end_to_end),
            ("per-layer metrics (--trace 1)", &self.per_layer),
        ] {
            out.push_str(&format!("{title}:\n"));
            for m in metrics {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!("  bound {:.1}%", b * 100.0));
                out.push_str(&format!(
                    "  {:<28} {:<7} {} is better{bound}\n",
                    m.name, m.unit, m.better
                ));
            }
        }
        out
    }
}

/// The values of one run, keyed by the names one list of the spec
/// declares.
pub struct Metrics<'a> {
    specs: &'a [MetricSpec],
    values: Vec<Option<f64>>,
}

impl<'a> Metrics<'a> {
    /// An empty set over `specs`.
    pub fn new(specs: &'a [MetricSpec]) -> Self {
        Metrics {
            specs,
            values: vec![None; specs.len()],
        }
    }

    /// Record `name`.
    ///
    /// # Panics
    /// If `BENCHMARK.json` does not declare `name`, or it is set twice —
    /// either means the code and the declaration have drifted apart.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .specs
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in BENCHMARK.json"));
        assert!(
            self.values[slot].replace(value).is_none(),
            "metric '{name}' set twice"
        );
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        let slot = self.specs.iter().position(|m| m.name == name)?;
        self.values[slot]
    }

    /// Declared names that were never set.
    pub fn missing(&self) -> Vec<&str> {
        self.specs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(m, _)| m.name.as_str())
            .collect()
    }

    /// `name value unit` lines, in declaration order.
    pub fn table(&self) -> String {
        self.specs
            .iter()
            .zip(&self.values)
            .filter_map(|(m, v)| v.map(|v| format!("{:<28} {v:>14.4} {}\n", m.name, m.unit)))
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in declaration order.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (m, v) in self.specs.iter().zip(&self.values) {
            if let Some(v) = *v {
                obj.push(
                    &m.name,
                    Json::obj().with("value", v).with("unit", m.unit.as_str()),
                );
            }
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "command": ["x"], "paths": ["p"], "run_seconds": 7,
        "workloads": [{"name": "w1", "why": "because"}],
        "end_to_end": [{"name": "a_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "l.count", "unit": "count", "better": "higher"}]
    }"#;

    #[test]
    fn parses_and_lists() {
        let spec = Spec::parse(SAMPLE).unwrap();
        assert_eq!(spec.run_seconds, 7);
        assert_eq!(spec.workloads, vec![("w1".into(), "because".into())]);
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert_eq!(spec.per_layer[0].bound, None);
        let listing = spec.listing();
        assert!(listing.contains("a_ms") && listing.contains("bound 10.0%"));
        assert!(Spec::parse("{}").is_err());
    }

    #[test]
    fn metrics_track_what_is_missing() {
        let spec = Spec::parse(SAMPLE).unwrap();
        let mut m = Metrics::new(&spec.end_to_end);
        assert_eq!(m.missing(), vec!["a_ms"]);
        m.set("a_ms", 1.5);
        assert!(m.missing().is_empty());
        assert_eq!(m.get("a_ms"), Some(1.5));
        assert_eq!(
            m.to_json().render(),
            r#"{"a_ms":{"value":1.5,"unit":"ms"}}"#
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        let spec = Spec::parse(SAMPLE).unwrap();
        Metrics::new(&spec.end_to_end).set("nope", 0.0);
    }
}
