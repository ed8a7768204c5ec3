//! The benchmark's metric vocabulary and its one-line JSON result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of every metric's
//! name and unit; a self-test checks them against `BENCHMARK.json`, and
//! [`Metrics::render`] refuses to print a result that misses one.

use std::collections::BTreeMap;

/// `(name, unit)` of every metric an untraced run reports.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p95_us", "us"),
    ("f1", "ratio"),
    ("index_bytes", "B"),
    ("ingest_rps", "records/s"),
    ("visible_p50_ms", "ms"),
    ("visible_p95_ms", "ms"),
    ("ok_rate", "ratio"),
];

/// `(name, unit)` of every metric a traced run reports.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stats.compute_ms", "ms"),
    ("cost.choose_ms", "ms"),
    ("cost.buffer_r", "count"),
    ("cost.tau", "ratio"),
    ("gbkmv.sketch_dataset_ms", "ms"),
    ("gbkmv.sketch_query_p50_us", "us"),
    ("index.build_ms", "ms"),
    ("index.search_p50_us", "us"),
    ("index.search_p99_us", "us"),
    ("index.search_r0_p50_us", "us"),
    ("index.hits_per_query", "count"),
    ("index.scratch_bytes", "B"),
    ("index.allocs_per_query", "count"),
    ("index.bitmap_blocks", "count"),
    ("eval.precision", "ratio"),
    ("eval.recall", "ratio"),
    ("mem.hash_arena_bytes", "B"),
    ("mem.hash_offsets_bytes", "B"),
    ("mem.buffer_arena_bytes", "B"),
    ("mem.meta_bytes", "B"),
    ("mem.permutation_bytes", "B"),
    ("mem.hash_df_bytes", "B"),
    ("mem.postings_packed_bytes", "B"),
    ("mem.posting_block_meta_bytes", "B"),
    ("mem.shared_bytes", "B"),
    ("service.submit_p50_us", "us"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.flush_p50_ms", "ms"),
    ("service.flush_p99_ms", "ms"),
    ("service.pending_max", "count"),
    ("service.generations", "count"),
    ("service.snapshot_p99_us", "us"),
    ("persist.checkpoint_p50_ms", "ms"),
    ("persist.reused_shards", "count"),
    ("persist.rewritten_shards", "count"),
    ("persist.fallbacks", "count"),
    ("persist.full_checkpoint_ms", "ms"),
    ("persist.arena_bytes", "B"),
    ("persist.open_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("self.stats_ms", "ms"),
    ("self.cost_ms", "ms"),
    ("self.gbkmv_ms", "ms"),
    ("self.index_ms", "ms"),
    ("self.mem_ms", "ms"),
    ("self.service_ms", "ms"),
    ("self.persist_ms", "ms"),
    ("self.eval_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// The layers whose self time the traced run reports (`self.<layer>_ms`).
pub const LAYERS: &[&str] = &[
    "bench", "stats", "cost", "gbkmv", "index", "mem", "service", "persist", "eval",
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`, which must be a declared metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, _) = declared(name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in END_TO_END or PER_LAYER"));
        self.values.insert(name, value);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: the run's verdict, operation counts, and every
    /// metric of `spec` with its unit. Errors name the first missing or
    /// non-finite metric.
    pub fn render(
        &self,
        spec: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut fields = Vec::with_capacity(spec.len());
        for &(name, unit) in spec {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        ))
    }
}

/// The `(name, unit)` entry declaring `name`.
fn declared(name: &str) -> Option<&'static (&'static str, &'static str)> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name)
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        v.get(key).unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
    }

    fn all_set(spec: &[(&'static str, &str)]) -> Metrics {
        let mut m = Metrics::default();
        for (i, &(name, _)) in spec.iter().enumerate() {
            m.set(name, i as f64 + 0.125);
        }
        m
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        for spec in [END_TO_END, PER_LAYER] {
            let line = all_set(spec)
                .render(spec, true, 10, 0)
                .expect("every metric set");
            let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
            assert_eq!(field(&v, "correct").as_bool(), Some(true));
            assert_eq!(field(&v, "attempted").as_i64(), Some(10));
            assert_eq!(field(&v, "failed").as_i64(), Some(0));
            let serde_json::Value::Object(metrics) = field(&v, "metrics") else {
                panic!("metrics is not an object: {line}");
            };
            assert_eq!(metrics.len(), spec.len());
            for ((key, m), (i, &(name, unit))) in metrics.iter().zip(spec.iter().enumerate()) {
                assert_eq!(key, name);
                assert_eq!(field(m, "unit").as_str(), Some(unit), "{name}");
                assert_eq!(field(m, "value").as_f64(), Some(i as f64 + 0.125));
            }
        }
    }

    #[test]
    fn missing_or_non_finite_metrics_refuse_to_render() {
        let mut m = all_set(END_TO_END);
        m.values.remove("f1");
        let err = m.render(END_TO_END, true, 1, 0).unwrap_err();
        assert!(err.contains("f1"), "{err}");
        let mut m = all_set(END_TO_END);
        m.set("query_qps", f64::NAN);
        assert!(m.render(END_TO_END, true, 1, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Metrics::default().set("no_such_metric", 1.0);
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(number(5_512_345.0), "5512345");
        assert_eq!(number(0.123_456_789_012_345_6), "0.1234567890123456");
        assert_eq!(number(-3.5), "-3.5");
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for layer in LAYERS {
            let name = format!("self.{layer}_ms");
            assert_eq!(declared(&name).map(|d| d.1), Some("ms"), "{name}");
        }
        let selfs = PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("self."))
            .count();
        assert_eq!(selfs, LAYERS.len());
    }

    /// The spec tables and `BENCHMARK.json` must agree name for name and
    /// unit for unit, in order.
    #[test]
    fn spec_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside opbench/");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, spec) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = field(&v, key)
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        field(m, "name").as_str().expect("name").to_string(),
                        field(m, "unit").as_str().expect("unit").to_string(),
                    )
                })
                .collect();
            let expected: Vec<(String, String)> = spec
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }
}
