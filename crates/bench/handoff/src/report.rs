//! What a run prints: the human-readable metric table, the host
//! descriptor and the one-line JSON result.

use crate::stats::Tally;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `s`, `us`, `1/s`, `count`.
    pub unit: &'static str,
}

/// The relational correctness checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    passed: Vec<&'static str>,
    failed: Vec<String>,
}

impl Checks {
    /// Records one check; `detail` explains a failure.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.passed.push(name);
        } else {
            self.failed.push(format!("{name}: {}", detail()));
        }
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.failed.is_empty()
    }

    /// Human-readable summary, one line per check.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for name in &self.passed {
            let _ = writeln!(out, "  ok    {name}");
        }
        for failure in &self.failed {
            let _ = writeln!(out, "  FAIL  {failure}");
        }
        out
    }
}

/// The machine a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Logical cores available to the process.
    pub cores: usize,
    /// CPU model name from `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
}

impl Host {
    /// Describes the current host.
    pub fn detect() -> Host {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|model| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Host { cores, cpu_model, rustc }
    }
}

/// Escapes a string for a JSON string literal.
fn json_string(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite value in shortest round-trip form (`null` otherwise).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// The run descriptor written next to every result: host, seed and the
/// tracing overhead.
pub fn descriptor_json(
    host: &Host,
    workload: &str,
    seed: u64,
    traced: bool,
    tracing_overhead_s: f64,
    metrics: &[Metric],
    tally: Tally,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": {},", json_string(workload));
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"trace\": {traced},");
    let _ = writeln!(out, "  \"cores\": {},", host.cores);
    let _ = writeln!(out, "  \"cpu_model\": {},", json_string(&host.cpu_model));
    let _ = writeln!(out, "  \"rustc\": {},", json_string(&host.rustc));
    let _ = writeln!(out, "  \"tracing_overhead_s\": {},", json_number(tracing_overhead_s));
    let _ = writeln!(out, "  \"attempted\": {},", tally.attempted);
    let _ = writeln!(out, "  \"failed\": {},", tally.failed);
    let _ = writeln!(out, "  \"failed_ratio\": {},", json_number(tally.failed_ratio()));
    let rendered: Vec<String> =
        metrics.iter().map(|m| format!("\n    {}", metric_json(m))).collect();
    let _ = write!(out, "  \"metrics\": {{{}\n  }}\n}}\n", rendered.join(","));
    out
}

/// One metric as `"name": {"value": v, "unit": "u"}`.
fn metric_json(m: &Metric) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json_string(m.name),
        json_number(m.value),
        json_string(m.unit)
    )
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let rendered: Vec<String> = metrics.iter().map(metric_json).collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        rendered.join(", ")
    )
}

/// The metric table printed before the result line.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = [Metric { name: "setup_s", value: 0.8127, unit: "s" }];
        let line = result_line(true, Tally { attempted: 3, failed: 0 }, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failed_checks_are_reported() {
        let mut checks = Checks::default();
        checks.check("a", true, String::new);
        checks.check("b", false, || "mismatch".to_string());
        assert!(!checks.all_passed());
        assert!(checks.summary().contains("FAIL  b: mismatch"));
    }
}
