//! Metric values with one unit each, the clock a unit implies, and the
//! result line.

use crate::stats::valid_metric_name;
use std::fmt::Write as _;

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The clock a unit is read on: simulated device time (`sim_…` units),
/// host CPU time charged to the process (`cpu_…`), a count of work
/// (counts, bytes, ratios), or host wall time.
pub fn clock(unit: &str) -> &'static str {
    if unit.starts_with("sim_") {
        "sim"
    } else if unit.starts_with("cpu_") {
        "cpu"
    } else if matches!(unit, "count" | "bytes" | "ratio" | "MiB") {
        "count"
    } else {
        "host"
    }
}

/// Ordered collection of metrics for one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    /// Value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Outcome of one benchmark run.
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Requests (proofs) attempted in the timed window.
    pub attempted: u64,
    /// Requests rejected, failed, late past their deadline, or whose
    /// proof failed a check.
    pub failed: u64,
    /// The metrics of this run.
    pub metrics: Metrics,
}

impl RunResult {
    /// Human-readable table: name, value, unit and clock per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<34} {:>16} {:<8} clock", "metric", "value", "unit");
        for m in &self.metrics.0 {
            let _ = writeln!(
                out,
                "{:<34} {:>16.6} {:<8} {}",
                m.name,
                m.value,
                m.unit,
                clock(m.unit)
            );
        }
        let _ = writeln!(
            out,
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        out
    }

    /// The single-line JSON result object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            assert!(
                valid_metric_name(&m.name),
                "invalid metric name {:?}",
                m.name
            );
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
