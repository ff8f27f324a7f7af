//! Exporters: Prometheus text exposition, a structured JSON report,
//! and the `--profile` table.
//!
//! Both exporters are deterministic — the [`Snapshot`] is already
//! sorted by [`MetricKey`] — so fixed input yields byte-identical
//! output (golden-tested below). Histograms named `*_seconds` hold
//! nanoseconds by the span-timer convention; the exporters divide their
//! values by 10⁹ (see the crate docs).

use crate::recorder::{MetricKey, Snapshot};
use std::fmt::Write as _;

/// Divisor applied to a histogram's values on export (`1e9` turns the
/// span timers' nanoseconds into seconds; 1 leaves raw units alone).
/// Dividing by the exactly-representable `1e9` — rather than
/// multiplying by an inexact `1e-9` — keeps the printed decimals clean.
pub(crate) fn scale_of(name: &str) -> f64 {
    if name.ends_with("_seconds") {
        1e9
    } else {
        1.0
    }
}

#[allow(clippy::cast_precision_loss)]
fn scaled(value: u64, divisor: f64) -> f64 {
    value as f64 / divisor
}

/// `{key="value"}` for a labeled series, empty for a bare one.
pub(crate) fn label_suffix(key: &MetricKey) -> String {
    match &key.label {
        None => String::new(),
        Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
    }
}

/// Like [`label_suffix`] but with an extra pair appended (for
/// `quantile="…"` on summary lines).
fn label_suffix_with(key: &MetricKey, extra_key: &str, extra_value: &str) -> String {
    match &key.label {
        None => format!("{{{extra_key}=\"{extra_value}\"}}"),
        Some((k, v)) => format!("{{{k}=\"{v}\",{extra_key}=\"{extra_value}\"}}"),
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

pub(crate) fn json_labels(key: &MetricKey) -> String {
    match &key.label {
        None => "{}".to_owned(),
        Some((k, v)) => format!("{{\"{}\": \"{}\"}}", json_escape(k), json_escape(v)),
    }
}

/// Formats a possibly-scaled value: integers stay integers, scaled
/// values use Rust's shortest-roundtrip float formatting.
pub(crate) fn fmt_value(value: u64, scale: f64) -> String {
    if (scale - 1.0).abs() < f64::EPSILON {
        format!("{value}")
    } else {
        format!("{}", scaled(value, scale))
    }
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Counters and gauges emit one sample per series; histograms emit
    /// summaries with `quantile="0.5" | "0.9" | "0.99"` plus `_sum` and
    /// `_count`. A `# TYPE` line precedes each family once.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (key, value) in &self.counters {
            if key.name != last_family {
                let _ = writeln!(out, "# TYPE {} counter", key.name);
                last_family = &key.name;
            }
            let _ = writeln!(out, "{}{} {}", key.name, label_suffix(key), value);
        }
        last_family = "";
        for (key, value) in &self.gauges {
            if key.name != last_family {
                let _ = writeln!(out, "# TYPE {} gauge", key.name);
                last_family = &key.name;
            }
            let _ = writeln!(out, "{}{} {}", key.name, label_suffix(key), value);
        }
        last_family = "";
        for (key, hist) in &self.histograms {
            if key.name != last_family {
                let _ = writeln!(out, "# TYPE {} summary", key.name);
                last_family = &key.name;
            }
            let scale = scale_of(&key.name);
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    key.name,
                    label_suffix_with(key, "quantile", label),
                    fmt_value(hist.quantile(q), scale)
                );
            }
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                key.name,
                label_suffix(key),
                fmt_value(hist.sum, scale)
            );
            let _ = writeln!(out, "{}_count{} {}", key.name, label_suffix(key), hist.count);
        }
        out
    }

    /// Renders the snapshot as a structured JSON report:
    /// `{"counters": […], "gauges": […], "histograms": […]}` with each
    /// entry carrying `name`, `labels` and its values.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        push_json_entries(&mut out, &self.counters, |entry, (key, value)| {
            let _ = key;
            let _ = write!(entry, "\"value\": {value}");
        });
        out.push_str("],\n  \"gauges\": [");
        push_json_entries(&mut out, &self.gauges, |entry, (key, value)| {
            let _ = key;
            let _ = write!(entry, "\"value\": {value}");
        });
        out.push_str("],\n  \"histograms\": [");
        push_json_entries(&mut out, &self.histograms, |entry, (key, hist)| {
            let scale = scale_of(&key.name);
            let min = if hist.count == 0 { 0 } else { hist.min };
            let _ = write!(
                entry,
                "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}",
                hist.count,
                fmt_value(hist.sum, scale),
                fmt_value(min, scale),
                fmt_value(hist.max, scale),
                fmt_value(hist.p50(), scale),
                fmt_value(hist.p90(), scale),
                fmt_value(hist.p99(), scale),
            );
        });
        out.push_str("]\n}\n");
        out
    }

    /// Renders every metric family as an aligned table (the body of the
    /// CLI's `--profile` stderr output): histograms first, then gauges,
    /// then counters, with `alerts_total` broken out into its own
    /// `alert` section at the end. Times are in seconds for `*_seconds`
    /// histograms, raw units otherwise.
    ///
    /// The snapshot is already sorted by [`MetricKey`], so the rows are
    /// deterministic; the name column widens to fit the longest series
    /// (never below the historical 48 columns), keeping long labeled
    /// names aligned instead of overflowing.
    #[must_use]
    pub fn profile_table(&self) -> String {
        let series_of = |key: &MetricKey| format!("{}{}", key.name, label_suffix(key));
        let width = self
            .histograms
            .iter()
            .map(|(key, _)| key)
            .chain(self.gauges.iter().map(|(key, _)| key))
            .chain(self.counters.iter().map(|(key, _)| key))
            .map(|key| series_of(key).len())
            .max()
            .unwrap_or(0)
            .max(48);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<width$} {:>9} {:>12} {:>12} {:>12} {:>12}",
            "histogram", "count", "total", "mean", "p50", "p99"
        );
        for (key, hist) in &self.histograms {
            let scale = scale_of(&key.name);
            let _ = writeln!(
                out,
                "{:<width$} {:>9} {:>12.6} {:>12.9} {:>12.9} {:>12.9}",
                series_of(key),
                hist.count,
                scaled(hist.sum, scale),
                hist.mean() / scale,
                scaled(hist.p50(), scale),
                scaled(hist.p99(), scale),
            );
        }
        // Memory families (the allocator sampler's output) get their
        // own section so per-phase byte accounting reads as one block
        // instead of scattering across the gauge and counter sections.
        let is_memory = |key: &MetricKey| {
            key.name.starts_with("alloc_")
                || key.name.starts_with("memory_")
                || key.name.starts_with("process_")
        };
        let (memory_gauges, gauges): (Vec<_>, Vec<_>) =
            self.gauges.iter().partition(|(key, _)| is_memory(key));
        if !gauges.is_empty() {
            let _ = writeln!(out, "{:<width$} {:>9}", "gauge", "value");
            for (key, value) in gauges {
                let _ = writeln!(out, "{:<width$} {value:>9}", series_of(key));
            }
        }
        let (alerts, counters): (Vec<_>, Vec<_>) =
            self.counters.iter().partition(|(key, _)| key.name == "alerts_total");
        let (memory_counters, counters): (Vec<_>, Vec<_>) =
            counters.into_iter().partition(|(key, _)| is_memory(key));
        if !memory_gauges.is_empty() || !memory_counters.is_empty() {
            let _ = writeln!(out, "{:<width$} {:>12}", "memory", "value");
            for (key, value) in memory_gauges {
                let _ = writeln!(out, "{:<width$} {value:>12}", series_of(key));
            }
            for (key, value) in memory_counters {
                let _ = writeln!(out, "{:<width$} {value:>12}", series_of(key));
            }
        }
        if !counters.is_empty() {
            let _ = writeln!(out, "{:<width$} {:>9}", "counter", "value");
            for (key, value) in counters {
                let _ = writeln!(out, "{:<width$} {value:>9}", series_of(key));
            }
        }
        if !alerts.is_empty() {
            let _ = writeln!(out, "{:<width$} {:>9}", "alert", "fired");
            for (key, value) in alerts {
                let _ = writeln!(out, "{:<width$} {value:>9}", series_of(key));
            }
        }
        out
    }
}

fn push_json_entries<T>(
    out: &mut String,
    entries: &[(MetricKey, T)],
    mut body: impl FnMut(&mut String, (&MetricKey, &T)),
) {
    for (i, (key, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(
            out,
            "\"name\": \"{}\", \"labels\": {}, ",
            json_escape(&key.name),
            json_labels(key)
        );
        body(out, (key, value));
        out.push('}');
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use crate::Recorder;

    /// A fixed registry used by both golden tests.
    fn fixture() -> Recorder {
        let r = Recorder::enabled();
        r.counter("cell_sweep_full_sweeps_total").add(12);
        r.counter_with("selector_solves_total", "selector", "dp").add(4);
        r.gauge("runner_queue_depth").set(0);
        // 1024 ns and 2048 ns into a *_seconds histogram → scaled.
        let h = r.histogram_with("round_phase_seconds", "phase", "pricing");
        h.record(1024);
        h.record(2048);
        // A raw-unit histogram stays unscaled.
        let raw = r.histogram("dp_states");
        raw.record(7);
        r
    }

    #[test]
    fn golden_prometheus_text() {
        let text = fixture().snapshot().to_prometheus();
        let expected = "\
# TYPE cell_sweep_full_sweeps_total counter
cell_sweep_full_sweeps_total 12
# TYPE selector_solves_total counter
selector_solves_total{selector=\"dp\"} 4
# TYPE runner_queue_depth gauge
runner_queue_depth 0
# TYPE dp_states summary
dp_states{quantile=\"0.5\"} 7
dp_states{quantile=\"0.9\"} 7
dp_states{quantile=\"0.99\"} 7
dp_states_sum 7
dp_states_count 1
# TYPE round_phase_seconds summary
round_phase_seconds{phase=\"pricing\",quantile=\"0.5\"} 0.000002047
round_phase_seconds{phase=\"pricing\",quantile=\"0.9\"} 0.000002048
round_phase_seconds{phase=\"pricing\",quantile=\"0.99\"} 0.000002048
round_phase_seconds_sum{phase=\"pricing\"} 0.000003072
round_phase_seconds_count{phase=\"pricing\"} 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn golden_json_report() {
        let json = fixture().snapshot().to_json();
        let expected = "{
  \"counters\": [
    {\"name\": \"cell_sweep_full_sweeps_total\", \"labels\": {}, \"value\": 12},
    {\"name\": \"selector_solves_total\", \"labels\": {\"selector\": \"dp\"}, \"value\": 4}
  ],
  \"gauges\": [
    {\"name\": \"runner_queue_depth\", \"labels\": {}, \"value\": 0}
  ],
  \"histograms\": [
    {\"name\": \"dp_states\", \"labels\": {}, \"count\": 1, \"sum\": 7, \"min\": 7, \"max\": 7, \"p50\": 7, \"p90\": 7, \"p99\": 7},
    {\"name\": \"round_phase_seconds\", \"labels\": {\"phase\": \"pricing\"}, \"count\": 2, \"sum\": 0.000003072, \"min\": 0.000001024, \"max\": 0.000002048, \"p50\": 0.000002047, \"p90\": 0.000002048, \"p99\": 0.000002048}
  ]
}
";
        assert_eq!(json, expected);
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let snap = Recorder::enabled().snapshot();
        assert_eq!(snap.to_prometheus(), "");
        assert_eq!(
            snap.to_json(),
            "{\n  \"counters\": [],\n  \"gauges\": [],\n  \"histograms\": []\n}\n"
        );
    }

    #[test]
    fn profile_table_lists_every_histogram_series() {
        let table = fixture().snapshot().profile_table();
        assert!(table.contains("round_phase_seconds{phase=\"pricing\"}"));
        assert!(table.contains("dp_states"));
        assert!(table.starts_with("histogram"));
    }

    #[test]
    fn profile_table_lists_gauges_and_breaks_out_alerts() {
        let r = Recorder::enabled();
        let long = "a_rather_long_histogram_family_name_that_needs_more_than_the_default_width";
        r.histogram(long).record(1_000);
        r.gauge("engine_budget_spent_permille").set(721);
        r.counter("engine_rounds_total").add(8);
        r.counter_with("alerts_total", "rule", "budget_overrun_proximity").add(2);
        let table = r.snapshot().profile_table();
        // Section order: histograms, gauges, counters, alerts.
        let histogram_at = table.find("histogram").unwrap();
        let gauge_at = table.find("\ngauge").unwrap();
        let counter_at = table.find("\ncounter").unwrap();
        let alert_at = table.find("\nalert ").unwrap();
        assert!(histogram_at < gauge_at && gauge_at < counter_at && counter_at < alert_at);
        assert!(table.contains("engine_budget_spent_permille"));
        assert!(table.contains("alerts_total{rule=\"budget_overrun_proximity\"}"));
        // The alerts_total family moves out of the counter section.
        let counter_section = &table[counter_at..alert_at];
        assert!(!counter_section.contains("alerts_total"), "{counter_section}");
        // Long names widen the column instead of breaking alignment:
        // every value column ends at the same offset on scalar rows.
        for line in table.lines().filter(|l| !l.contains("histogram") && !l.contains(long)) {
            assert!(line.len() >= long.len() + 2, "misaligned row: {line:?}");
        }
    }

    #[test]
    fn profile_table_lists_every_counter_series() {
        let table = fixture().snapshot().profile_table();
        assert!(table.contains("counter"));
        assert!(table.contains("cell_sweep_full_sweeps_total"));
        assert!(table.contains("selector_solves_total{selector=\"dp\"}"));
        // A recorder with no counters renders no counter section.
        let empty = Recorder::enabled();
        empty.histogram("dp_states").record(1);
        assert!(!empty.snapshot().profile_table().contains("counter"));
    }
}
