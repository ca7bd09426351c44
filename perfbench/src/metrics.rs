//! The metric registry and the result line.
//!
//! Every run prints one JSON object as its last line. With tracing off
//! it carries every end-to-end metric; with tracing on, every
//! per-layer metric. A per-layer metric whose layer a workload does
//! not call reads 0 there.

use crate::nets::{depth, net_names};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name, unit and direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, in output order.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("setup_s", "s", "lower"),
        m("lat_p50_ms", "ms", "lower"),
        m("lat_p95_ms", "ms", "lower"),
        m("goodput_rps", "1/s", "higher"),
        m("sat_rps", "1/s", "higher"),
        m("ok_frac", "frac", "higher"),
        m("forward_ms", "ms", "lower"),
        m("forward_p90_ms", "ms", "lower"),
        m("comm_elems", "elems", "lower"),
        m("msgs", "count", "lower"),
        m("makespan_us", "virt_us", "lower"),
        m("peak_mem_elems", "elems", "lower"),
    ]
}

/// The per-layer metrics, in output order.
pub fn per_layer() -> Vec<Metric> {
    let nets = net_names();
    let mut v = vec![
        m("serve.submit_us", "us", "lower"),
        m("serve.partial_frac", "frac", "lower"),
    ];
    v.extend(
        nets.iter()
            .map(|n| m(format!("serve.fill.{n}"), "frac", "higher")),
    );
    v.extend([
        m("serve.queue_wait_ms", "ms", "lower"),
        m("serve.backlog_growth", "ratio", "lower"),
        m("serve.rejected", "count", "lower"),
        m("serve.replays", "count", "lower"),
        m("serve.self_ms", "ms", "lower"),
    ]);
    for n in &nets {
        v.push(m(format!("core.dispatch_ms.{n}"), "ms", "lower"));
        v.push(m(format!("core.executor_ms.{n}"), "ms", "lower"));
        v.push(m(format!("core.forward_ms.{n}"), "ms", "lower"));
        for i in 0..depth() {
            v.push(m(format!("core.L{i}.wall_ms.{n}"), "ms", "lower"));
        }
    }
    v.push(m("core.self_ms", "ms", "lower"));
    for n in &nets {
        v.push(m(format!("conv.reference_ms.{n}"), "ms", "lower"));
        v.push(m(format!("conv.kernel_ms.{n}"), "ms", "lower"));
    }
    v.extend([
        m("conv.rep.flops", "flop", "lower"),
        m("conv.rep.bytes", "bytes", "lower"),
        m("conv.rep.gflops", "GFLOP/s", "higher"),
        m("conv.rep.standalone_gflops", "GFLOP/s", "higher"),
        m("conv.self_ms", "ms", "lower"),
        m("simnet.compute_ms", "ms", "lower"),
        m("simnet.comm_wait_ms", "ms", "lower"),
        m("simnet.overhead_ms", "ms", "lower"),
        m("simnet.sim_time_us", "virt_us", "lower"),
        m("simnet.redist_elems", "elems", "lower"),
    ]);
    for n in &nets {
        for i in 0..depth() {
            v.push(m(format!("simnet.L{i}.elems.{n}"), "elems", "lower"));
            v.push(m(format!("simnet.L{i}.msgs.{n}"), "count", "lower"));
            v.push(m(
                format!("simnet.L{i}.makespan_us.{n}"),
                "virt_us",
                "lower",
            ));
        }
    }
    for n in &nets {
        v.push(m(format!("cost.plan_ms.{n}"), "ms", "lower"));
        for i in 0..depth() {
            v.push(m(format!("cost.L{i}.vol_ratio.{n}"), "ratio", "lower"));
            v.push(m(format!("cost.L{i}.pred_ratio.{n}"), "ratio", "lower"));
        }
    }
    v.extend([
        m("cost.self_ms", "ms", "lower"),
        m("trace.overhead_pct", "%", "lower"),
        m("loadgen.late_p95_ms", "ms", "lower"),
    ]);
    v
}

/// True when `name` is a valid metric or workload name.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Metric values collected by one run.
#[derive(Default, Debug)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Set `name` to `v`.
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.0.insert(name.into(), v);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// A run's outcome: operations attempted and failed, why they failed,
/// and the metric values.
#[derive(Default, Debug)]
pub struct Outcome {
    /// Operations attempted (requests, forward calls, probe calls).
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Metric values.
    pub values: Values,
}

impl Outcome {
    /// Count one attempted operation that passed.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Count one attempted operation that failed, and why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Record a failure of a check that spans operations already
    /// counted (a gate on the run as a whole).
    pub fn gate(&mut self, pass: bool, why: impl FnOnce() -> String) {
        if !pass {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    /// The result line for `metrics`. Unset per-layer metrics read 0;
    /// an unset or non-finite end-to-end metric fails the run.
    pub fn result_line(&mut self, metrics: &[Metric], required: bool) -> String {
        let mut body = String::new();
        for (i, mt) in metrics.iter().enumerate() {
            let v = match self.values.get(&mt.name) {
                Some(v) if v.is_finite() => v,
                other => {
                    if required || other.is_some() {
                        self.gate(false, || format!("metric {} not measured", mt.name));
                    }
                    0.0
                }
            };
            let _ = write!(
                body,
                "{}\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}",
                if i == 0 { "" } else { "," },
                mt.name,
                mt.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distconv_cost::json::JsonValue;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = BTreeSet::new();
        for mt in &all {
            assert!(valid_name(&mt.name), "bad metric name {}", mt.name);
            assert!(seen.insert(mt.name.clone()), "duplicate {}", mt.name);
            assert!(mt.better == "lower" || mt.better == "higher");
            assert!(mt.unit.len() <= 16);
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "bad workload name {w}");
        }
        assert!(!valid_name("") && !valid_name("a b") && !valid_name(".x") && !valid_name("a/b"));
        assert!(per_layer().len() <= 128);
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = JsonValue::parse(&src).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let want = |ms: Vec<Metric>| -> Vec<(String, String, String)> {
            ms.into_iter()
                .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), want(end_to_end()));
        assert_eq!(list("per_layer"), want(per_layer()));
        let workloads: Vec<String> = list("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome::default();
        o.ok();
        o.values.set("setup_s", 0.5);
        let line = o.result_line(&[m("setup_s", "s", "lower")], true);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        let line = o.result_line(&[m("lat_p50_ms", "ms", "lower")], true);
        assert!(line.starts_with("{\"correct\":false"));
        let doc = JsonValue::parse(&line).unwrap();
        assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(1.0));
    }
}
