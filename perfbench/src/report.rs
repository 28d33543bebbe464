//! Metric names, units and the result line.
//!
//! `E2E` and `PER_LAYER` are the benchmark's metric contract; they must
//! match `BENCHMARK.json` at the repository root (a unit test checks).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The parts every run measures, in the order each round runs them.
pub const PARTS: [&str; 4] = ["nas", "micro_fine", "irregular", "tenant"];

/// Workloads: each names the part it gives a larger share of the run
/// than the other workload does (see `SHARES` in `main.rs`).
pub const WORKLOADS: [&str; 2] = ["nas", "micro_fine"];

/// End-to-end metrics, printed by every untraced run.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ep_s", "s"),
    ("cg_s", "s"),
    ("mg_s", "s"),
    ("ft_s", "s"),
    ("is_s", "s"),
    ("loop_p50_us", "us"),
    ("loop_p90_us", "us"),
    ("pass_ms", "ms"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("batch_loops_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.steals_per_loop", "count"),
    ("runtime.pushes_per_loop", "count"),
    ("runtime.steal_success", "ratio"),
    ("runtime.parks_per_loop", "count"),
    ("runtime.parked_frac", "ratio"),
    ("runtime.install_rt_us", "us"),
    ("runtime.wakes_notified_per_s", "1/s"),
    ("runtime.wakes_backstop_per_s", "1/s"),
    ("runtime.lane_latency_jobs", "count"),
    ("runtime.lane_batch_jobs", "count"),
    ("core.loop_floor_us", "us"),
    ("core.hybrid.failed_claims_per_loop", "count"),
    ("core.hybrid.claim_bound_ratio", "ratio"),
    ("core.hybrid.adoptions_per_loop", "count"),
    ("core.lazy.assists_per_loop", "count"),
    ("core.affinity", "ratio"),
    ("core.leaf_busy_frac.nas", "ratio"),
    ("core.leaf_busy_frac.micro_fine", "ratio"),
    ("core.leaf_busy_frac.irregular", "ratio"),
    ("core.leaf_busy_frac.tenant", "ratio"),
    ("core.leaf_busy_frac.nas.ep", "ratio"),
    ("core.leaf_busy_frac.nas.cg", "ratio"),
    ("core.leaf_busy_frac.nas.mg", "ratio"),
    ("core.leaf_busy_frac.nas.ft", "ratio"),
    ("core.leaf_busy_frac.nas.is", "ratio"),
    ("core.adapt.adjustments_per_pass", "count"),
    ("core.adapt.settled_frac", "ratio"),
    ("nas.ep.leaf_s", "s"),
    ("nas.cg.leaf_s", "s"),
    ("nas.mg.leaf_s", "s"),
    ("nas.ft.leaf_s", "s"),
    ("nas.is.leaf_s", "s"),
    ("nas.ep.ops_per_s", "1/s"),
    ("nas.cg.ops_per_s", "1/s"),
    ("nas.mg.ops_per_s", "1/s"),
    ("nas.ft.ops_per_s", "1/s"),
    ("nas.is.ops_per_s", "1/s"),
    ("nas.ep.seq_s", "s"),
    ("nas.is.seq_s", "s"),
    ("micro.leaf_ns_per_elem", "ns"),
    ("micro.seq_us", "us"),
    ("micro.loop_p99_us", "us"),
    ("micro.loop_self_us", "us"),
    ("tenant.admit_overhead_us", "us"),
    ("tenant.rejected", "count"),
    ("tenant.hist_p99_us", "us"),
    ("tenant.lat_p99_us", "us"),
    ("tenant.gen_late_max_us", "us"),
    ("tenant.batch_self_us", "us"),
    ("trace.overhead.nas", "ratio"),
    ("trace.overhead.micro_fine", "ratio"),
    ("trace.overhead.irregular", "ratio"),
    ("trace.overhead.tenant", "ratio"),
    ("trace.dropped", "count"),
    ("trace.counts_checked", "count"),
];

/// Metric values collected during a run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The names in `spec` that were never set.
    pub fn missing(&self, spec: &[(&'static str, &str)]) -> Vec<&'static str> {
        spec.iter().filter(|(n, _)| !self.0.contains_key(n)).map(|&(n, _)| n).collect()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every metric of `spec` in `spec` order. A metric that
/// was not set or is not finite makes the run incorrect (and prints 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    spec: &[(&str, &str)],
    m: &Metrics,
) -> String {
    let mut ok = correct;
    let mut body = String::new();
    for (i, (name, unit)) in spec.iter().enumerate() {
        let v = match m.get(name) {
            Some(v) if v.is_finite() => v,
            _ => {
                ok = false;
                0.0
            }
        };
        if i > 0 {
            body.push_str(", ");
        }
        // A finite f64 displays as its shortest round-trip decimal, which
        // keeps every digit and is valid JSON.
        let _ = write!(body, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}

/// A JSON string literal (the run's provenance fields may hold anything).
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `"key": "value"` pairs of `field` inside the JSON array `key`.
    fn array_fields(json: &str, key: &str, field: &str) -> Vec<String> {
        let at = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
        let open = at + json[at..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        let needle = format!("\"{field}\"");
        let mut out = Vec::new();
        let mut rest = &json[open..close];
        while let Some(i) = rest.find(&needle) {
            rest = &rest[i + needle.len()..];
            let q0 = rest.find('"').expect("value opens") + 1;
            let q1 = q0 + rest[q0..].find('"').expect("value closes");
            out.push(rest[q0..q1].to_string());
            rest = &rest[q1 + 1..];
        }
        out
    }

    fn names(spec: &[(&str, &str)]) -> Vec<String> {
        spec.iter().map(|(n, _)| n.to_string()).collect()
    }

    fn units(spec: &[(&str, &str)]) -> Vec<String> {
        spec.iter().map(|(_, u)| u.to_string()).collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        assert_eq!(array_fields(BENCHMARK_JSON, "end_to_end", "name"), names(E2E));
        assert_eq!(array_fields(BENCHMARK_JSON, "end_to_end", "unit"), units(E2E));
        assert_eq!(array_fields(BENCHMARK_JSON, "per_layer", "name"), names(PER_LAYER));
        assert_eq!(array_fields(BENCHMARK_JSON, "per_layer", "unit"), units(PER_LAYER));
        assert_eq!(array_fields(BENCHMARK_JSON, "workloads", "name"), WORKLOADS);
    }

    #[test]
    fn result_line_emits_every_metric_of_the_spec() {
        let mut m = Metrics::default();
        for (i, (name, _)) in E2E.iter().enumerate() {
            m.set(name, 1.5 + i as f64);
        }
        let line = result_line(true, 10, 0, E2E, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        for (name, unit) in E2E {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(m.missing(E2E).is_empty());
    }

    #[test]
    fn missing_or_non_finite_metric_makes_the_run_incorrect() {
        let mut m = Metrics::default();
        for (name, _) in E2E.iter().skip(1) {
            m.set(name, 2.0);
        }
        assert_eq!(m.missing(E2E), vec!["setup_s"]);
        assert!(result_line(true, 1, 0, E2E, &m).starts_with("{\"correct\": false"));
        m.set("setup_s", f64::NAN);
        assert!(result_line(true, 1, 0, E2E, &m).starts_with("{\"correct\": false"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
