//! Metric names, units and the one-line JSON result.

use std::fmt::Write as _;

/// The end-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("txn_per_s", "txn/s"),
    ("commit_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, reported by the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("core.iteration_us.p50", "us"),
    ("core.iteration_us.p99", "us"),
    ("core.tracing_overhead_frac", "frac"),
    ("core.partitioned_phase_us_per_txn", "us"),
    ("core.single_master_phase_us_per_txn", "us"),
    ("core.fence_us.p50", "us"),
    ("core.fence_us.p99", "us"),
    ("replication.fence_us_per_kb", "us/KiB"),
    ("wal.flush_us_per_epoch", "us"),
    ("replication.bytes_per_txn", "B"),
    ("wal.bytes_per_txn", "B"),
    ("occ.abort_frac", "frac"),
    ("storage.get_ns.p50", "ns"),
    ("proc.cpu_us_per_txn", "us"),
    ("proc.vol_ctxsw_per_txn", "count"),
    ("proc.invol_ctxsw_per_s", "1/s"),
    ("proto.ping_rtt_us.p50", "us"),
    ("proto.ping_rtt_us.p99", "us"),
    ("serverd.cpu_us_per_txn", "us"),
    ("serverd.vol_ctxsw_per_epoch", "count"),
    ("serverd.wire_over_twin", "ratio"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// Samples behind the value, for percentiles and medians.
    pub samples: Option<u64>,
}

/// The result of one run: the correctness verdict, the request counts and
/// the metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Requests (transactions, or `Run` requests on the wire) attempted.
    pub attempted: u64,
    /// Requests that errored or timed out.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric, looking its unit up in `catalog`.
    pub fn add(
        &mut self,
        catalog: &[(&'static str, &'static str)],
        name: &str,
        value: f64,
        samples: Option<u64>,
    ) {
        let &(name, unit) =
            catalog.iter().find(|(n, _)| *n == name).expect("metric is in the catalog");
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Checks that the report holds exactly the metrics of `catalog`, each a
    /// finite number.
    pub fn check_complete(&self, catalog: &[(&str, &str)]) -> Result<(), String> {
        for (name, _) in catalog {
            match self.metrics.iter().filter(|m| m.name == *name).count() {
                1 => {}
                0 => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} was reported twice")),
            }
        }
        for m in &self.metrics {
            if !catalog.iter().any(|(n, _)| *n == m.name) {
                return Err(format!("metric {} is not in the catalog", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a finite number: {}", m.name, m.value));
            }
        }
        Ok(())
    }

    /// One human-readable line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| format!(" (samples {n})"));
            let _ = writeln!(out, "metric {} = {} {}{samples}", m.name, m.value, m.unit);
        }
        out
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
