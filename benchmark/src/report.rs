//! What a run prints: a table for people, then the one-line JSON result
//! the driver reads; and the reader of that line, for the modes that run
//! workloads as child processes.

use std::fmt::Write as _;

use crate::layers::Traced;
use crate::measure::{peak_rss_mb, Outcome, Reduced};
use crate::metrics::{per_layer, END_TO_END};

/// The last line of a run's standard output.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of `BENCHMARK.json`.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn from_outcome(o: &Outcome, r: &Reduced) -> RunResult {
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "ops_per_s" => o.span_rate.unwrap_or(r.ops_per_s),
                    "slo_met_share" => r.slo_met_share,
                    "peak_rss_mb" => peak_rss_mb(),
                    "setup_s" => o.setup_s,
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                (m.name.to_string(), value, m.unit.to_string())
            })
            .collect();
        RunResult {
            attempted: o.attempted(),
            failed: o.failed(),
            metrics,
        }
    }

    pub fn from_traced(t: &Traced) -> RunResult {
        let metrics = per_layer()
            .into_iter()
            .map(|m| {
                let row = t
                    .rows
                    .get(&m.name)
                    .unwrap_or_else(|| panic!("the traced pass produced no {}", m.name));
                (m.name, row.value, m.unit.to_string())
            })
            .collect();
        RunResult {
            attempted: t.attempted,
            failed: t.failed,
            metrics,
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Values go out with every digit `f64` holds; nothing is rounded.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "{name} is not a number: {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Read back a line [`RunResult::to_json_line`] wrote. The workspace's
    /// JSON reader has no floats, and this format is the benchmark's own.
    pub fn parse(line: &str) -> Option<RunResult> {
        let field = |key: &str| -> Option<&str> {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        let body = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
            let name = entry.split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            let unit = entry.split("\"unit\": \"").nth(1)?;
            metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
        }
        Some(RunResult {
            attempted,
            failed,
            metrics,
        })
    }
}

/// One untraced run for people: the gated metrics, then the latency
/// percentiles over the quiet pool and over the whole run, the failure
/// and limit-miss shares of the whole run, the quiet pool's own share
/// within the limit, and the workload's own notes.
pub fn print_outcome(workload: &str, o: &Outcome, r: &Reduced, result: &RunResult) {
    println!(
        "workload {workload}: {} operations attempted, {} failed",
        result.attempted, result.failed
    );
    for (name, value, unit) in &result.metrics {
        println!("  {name:<24} {unit:<6} {value:>14.4}");
    }
    let attempted = result.attempted.max(1) as f64;
    let (pooled, whole) = (r.pooled, o.ops.len());
    for (name, unit, value, n) in [
        ("p50_ms", "ms", r.p50_ms, pooled),
        ("p99_ms", "ms", r.p99_ms, pooled),
        ("p50_ms.whole_run", "ms", r.whole_p50_ms, whole),
        ("p99_ms.whole_run", "ms", r.whole_p99_ms, whole),
        (
            "fail_share",
            "ratio",
            result.failed as f64 / attempted,
            whole,
        ),
        ("slo_miss_share", "ratio", 1.0 - r.slo_met_share, whole),
        (
            "slo_met_share.quiet_pool",
            "ratio",
            r.quiet_slo_met_share,
            pooled,
        ),
    ] {
        println!("  {name:<24} {unit:<6} {value:>14.4}  n={n} (reported, not gated)");
    }
    println!(
        "  quiet pool: {} of {} operations (blocks of {}); latency limit {} ms",
        r.pooled,
        o.ops.len(),
        o.block_ops,
        o.limit_ms
    );
    for (name, value, unit) in &o.notes {
        println!("  note {name:<24} {unit:<6} {value:>14.4}");
    }
}

/// The per-layer table: name, unit, value, and the calls behind it.
pub fn print_traced(t: &Traced) {
    println!(
        "traced pass: {} checks, {} failed; spans in benchmark/out/trace.json",
        t.attempted, t.failed
    );
    for m in per_layer() {
        if let Some(row) = t.rows.get(&m.name) {
            println!(
                "  {:<48} {:<6} {:>16.4}  n={}",
                m.name, m.unit, row.value, row.calls
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_reads_back_as_written() {
        let r = RunResult {
            attempted: 1234,
            failed: 2,
            metrics: vec![
                ("p50_ms".into(), 0.6123456789012345, "ms".into()),
                ("ops_per_s".into(), 1633.25, "1/s".into()),
                ("bench.trace_overhead_pct".into(), -0.5, "%".into()),
                ("sim.steps.e1_n24".into(), 67025.0, "count".into()),
            ],
        };
        let line = r.to_json_line();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1234, \"failed\": 2,"));
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::parse(&line), Some(r.clone()));
        assert_eq!(r.get("ops_per_s"), Some(1633.25));
        assert_eq!(RunResult::parse("workload warm_kernel: 3 operations"), None);
    }
}
