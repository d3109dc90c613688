//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can emit is declared here with its unit;
//! `BENCHMARK.json` at the repository root lists the same names and
//! units (a test keeps the two in step).

use islands_trace::json::Json;
use mpdata::MpdataProblem;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("mlups", "Mcells/s"),
    ("interval_ms_p50", "ms"),
    ("interval_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics other than the per-stage kernel times, printed by
/// every traced run. Names with `model` in them are computed from the
/// traffic model, not measured.
const PER_LAYER: [(&str, &str); 26] = [
    ("kernels.total.ns_per_cell", "ns/cell"),
    ("kernels.total.gflops", "GFlop/s"),
    ("exec.run_ms_per_step", "ms"),
    ("exec.allocs_per_step", "count"),
    ("exec.alloc_mb_per_step", "MB"),
    ("exec.kernel_frac", "frac"),
    ("exec.barrier_wait_frac", "frac"),
    ("plan.build_ms", "ms"),
    ("plan.useful_cell_frac", "frac"),
    ("plan.model_bytes_per_step", "B"),
    ("plan.model_gbs", "GB/s"),
    ("scheduler.dispatch_us", "us"),
    ("scheduler.barrier_us", "us"),
    ("trace.drain_ms", "ms"),
    ("trace.aggregate_ms", "ms"),
    ("trace.export_ms", "ms"),
    ("trace.validate_ms", "ms"),
    ("trace.validate_mb_s", "MB/s"),
    ("trace.metrics_json_ms", "ms"),
    ("trace.events_per_step", "count"),
    ("trace.dropped_frac", "frac"),
    ("host.fma_gflops", "GFlop/s"),
    ("host.triad_gbs", "GB/s"),
    ("host.pct_peak", "%"),
    ("host.model_pct_triad", "%"),
    ("bench.span_overhead", "ratio"),
];

/// `kernels.<stage>.ns_per_cell`, one per stage, named by
/// `StageDef::name`.
pub fn kernel_metric(stage: &str) -> String {
    format!("kernels.{stage}.ns_per_cell")
}

/// The full per-layer catalogue: the 17 stage kernels, then the rest.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let problem = MpdataProblem::standard();
    let mut out: Vec<(String, &'static str)> = problem
        .graph()
        .stages()
        .iter()
        .map(|st| (kernel_metric(&st.name), "ns/cell"))
        .collect();
    out.extend(PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// One measured value with its sample count and a note for the
/// human-readable table.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

/// The metrics of one run, checked against a catalogue.
pub struct Report {
    catalogue: Vec<(String, &'static str)>,
    values: Vec<Option<Value>>,
}

impl Report {
    pub fn new(catalogue: Vec<(String, &'static str)>) -> Report {
        let values = vec![None; catalogue.len()];
        Report { catalogue, values }
    }

    /// Records `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue or was already set: both
    /// are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, samples: usize, note: impl Into<String>) {
        let i = self
            .catalogue
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some(Value {
            value,
            samples,
            note: note.into(),
        });
    }

    /// Names in the catalogue that were never set.
    pub fn missing(&self) -> Vec<&str> {
        self.catalogue
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|((n, _), _)| n.as_str())
            .collect()
    }

    /// `(name, unit, value)` for every set metric, in catalogue order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &'static str, &Value)> {
        self.catalogue
            .iter()
            .zip(&self.values)
            .filter_map(|((n, u), v)| v.as_ref().map(|v| (n.as_str(), *u, v)))
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit, v) in self.entries() {
            out.push_str(&format!(
                "{name:<34} {:>16.6} {unit:<9} n={:<6} {}\n",
                v.value, v.samples, v.note
            ));
        }
        out
    }

    /// Per-metric sample counts, for the run metadata.
    pub fn sample_counts(&self) -> Json {
        Json::Object(
            self.entries()
                .map(|(n, _, v)| (n.to_string(), Json::Num(v.samples as f64)))
                .collect(),
        )
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Errors
    ///
    /// Fails when a catalogue metric is unset or a value is not finite.
    pub fn result_line(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let missing = self.missing();
        if !missing.is_empty() {
            return Err(format!("metrics never measured: {}", missing.join(", ")));
        }
        let metrics = self
            .entries()
            .map(|(n, u, v)| {
                let m = Json::Object(vec![
                    ("value".into(), Json::Num(v.value)),
                    ("unit".into(), Json::Str(u.into())),
                ]);
                (n.to_string(), m)
            })
            .collect();
        Json::Object(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(attempted as f64)),
            ("failed".into(), Json::Num(failed as f64)),
            ("metrics".into(), Json::Object(metrics)),
        ])
        .render()
        .map_err(|e| format!("result line: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_trace::json::parse;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let ours = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), ours(e2e));
        assert_eq!(listed(&doc, "per_layer"), ours(per_layer()));
        assert_eq!(per_layer().len(), 17 + PER_LAYER.len());
    }

    #[test]
    fn result_line_refuses_missing_metrics_and_carries_units() {
        let mut r = Report::new(vec![("a".into(), "ms"), ("b".into(), "s")]);
        r.set("a", 1.5, 3, "");
        assert!(r.result_line(true, 1, 0).unwrap_err().contains('b'));
        r.set("b", 0.25, 1, "");
        let doc = parse(&r.result_line(true, 4, 0).unwrap()).unwrap();
        let b = doc.get("metrics").and_then(|m| m.get("b")).unwrap();
        assert_eq!(b.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(b.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(4.0));
    }
}
