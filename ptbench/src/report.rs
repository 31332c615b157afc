//! Metric definitions and the run's result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's metric
//! vocabulary; `BENCHMARK.json` lists the same names and units (a
//! self-test keeps them in step).

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Metrics a user of the compiler or the service sees; measured with
/// tracing off.
pub const END_TO_END: &[Def] = &[
    def("compile_s", "s"),
    def("setup_s", "s"),
    def("sim_cycles_total", "cycles"),
    def("edp_geomean", "pJ.cycles"),
    def("latency_p50_ms", "ms"),
    def("latency_p90_ms", "ms"),
    def("throughput_rps", "1/s"),
    def("peak_rss_mb", "MiB"),
    def("success_ratio", "share"),
];

/// Metrics of single layers; measured by the traced run.
pub const PER_LAYER: &[Def] = &[
    def("transform.explore_s", "s"),
    def("transform.candidates", "count"),
    def("eval.evaluate_s", "s"),
    def("eval.evaluate_pct", "%"),
    def("eval.predict_s", "s"),
    def("eval.predict_pct", "%"),
    def("eval.predict_calls", "count"),
    def("eval.predict_us", "us"),
    def("eval.rest_s", "s"),
    def("eval.pruned", "count"),
    def("gnn.features_us", "us"),
    def("gnn.infer_us", "us"),
    def("mapper.map_s", "s"),
    def("mapper.accepts", "count"),
    def("mapper.rejects", "count"),
    def("mapper.ii_attempts", "count"),
    def("mapper.bfs_expansions", "count"),
    def("core.context_attempts", "count"),
    def("sim.simulate_s", "s"),
    def("pipeline.overhead_s", "s"),
    def("pipeline.evaluate_s", "s"),
    def("pipeline.map_s", "s"),
    def("serve.hit_p50_ms", "ms"),
    def("serve.miss_p50_ms", "ms"),
    def("serve.server_ms", "ms"),
    def("serve.accept_wait_ms", "ms"),
    def("serve.compiles", "count"),
    def("serve.cache_hits", "count"),
    def("serve.coalesced", "count"),
    def("serve.rejects", "count"),
    def("serve.reuse_ratio", "ratio"),
    def("gateway.hop_ms", "ms"),
    def("gateway.forwards", "count"),
    def("gateway.retries", "count"),
    def("gateway.peer_skew", "ratio"),
    def("trace.overhead_pct", "%"),
];

/// What one run measured: metric values, metrics it could not
/// measure (with the reason), and the operation tally.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    unmeasured: BTreeMap<&'static str, String>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records that `name` cannot be measured on this workload.
    pub fn unmeasured(&mut self, name: &'static str, reason: &str) {
        self.unmeasured.insert(name, reason.to_string());
    }

    /// Counts one failed operation and keeps its description.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Prints one `metric` line per metric of `defs`, the unmeasured
    /// ones with their reason, then the result line. A metric that was
    /// neither measured nor declared unmeasured is a harness bug.
    pub fn print(&self, defs: &[Def]) {
        for p in &self.problems {
            println!("failure {p}");
        }
        let mut fields = Vec::new();
        for d in defs {
            let value = match (self.values.get(d.name), self.unmeasured.get(d.name)) {
                (Some(v), _) => {
                    println!("metric {} = {} {}", d.name, v, d.unit);
                    *v
                }
                (None, Some(reason)) => {
                    println!("metric {} = not measured ({reason}); reported as 0", d.name);
                    0.0
                }
                (None, None) => panic!("metric {} was not produced", d.name),
            };
            fields.push(format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                d.name,
                json_number(value),
                d.unit
            ));
        }
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// A finite number in JSON syntax with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {}", d.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(doc: &serde_json::Value, list: &str) -> Vec<(String, String)> {
        doc.get(list)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        let pairs = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), pairs(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), pairs(PER_LAYER));
    }

    #[test]
    fn result_numbers_keep_every_digit() {
        assert_eq!(json_number(1.2034567891), "1.2034567891");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
