//! Snapshot rendering: JSON and Prometheus exposition.
//!
//! Both exporters consume the same [`Snapshot`], which the registry
//! emits in `(name, labels)`-sorted order — so every format is
//! byte-deterministic for a deterministic simulation run.

use crate::hist::HistSnapshot;
use crate::metrics::MetricId;
use serde::{Number, Value};
use std::fmt::Write as _;

/// Point-in-time view of every metric in a [`crate::Registry`], sorted
/// by `(name, labels)`.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauge values.
    pub gauges: Vec<(MetricId, f64)>,
    /// Histogram summaries.
    pub hists: Vec<(MetricId, HistSnapshot)>,
}

impl Snapshot {
    /// Look up a counter by rendered identity (`name` or `name{k=v}`).
    pub fn counter(&self, rendered: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(id, _)| id.render() == rendered)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by rendered identity.
    pub fn gauge(&self, rendered: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(id, _)| id.render() == rendered)
            .map(|&(_, v)| v)
    }

    /// Look up a histogram summary by rendered identity.
    pub fn histogram(&self, rendered: &str) -> Option<HistSnapshot> {
        self.hists
            .iter()
            .find(|(id, _)| id.render() == rendered)
            .map(|&(_, v)| v)
    }

    /// Render as a JSON value (see EXPERIMENTS.md for the schema).
    pub fn to_json_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(id, v)| (id.render(), Value::Number(Number::U(*v))))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(id, v)| (id.render(), Value::Number(Number::F(*v))))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(id, h)| {
                let fields = vec![
                    ("count".to_string(), Value::Number(Number::U(h.count))),
                    ("sum".to_string(), Value::Number(Number::U(h.sum))),
                    ("min".to_string(), Value::Number(Number::U(h.min))),
                    ("max".to_string(), Value::Number(Number::U(h.max))),
                    ("mean".to_string(), Value::Number(Number::F(h.mean))),
                    ("p50".to_string(), Value::Number(Number::U(h.p50))),
                    ("p90".to_string(), Value::Number(Number::U(h.p90))),
                    ("p99".to_string(), Value::Number(Number::U(h.p99))),
                    ("p999".to_string(), Value::Number(Number::U(h.p999))),
                ];
                (id.render(), Value::Object(fields))
            })
            .collect();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("gauges".to_string(), Value::Object(gauges)),
            ("histograms".to_string(), Value::Object(hists)),
        ])
    }

    /// Render as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::json::write(&self.to_json_value(), true)
    }

    /// Render in Prometheus exposition format. Dots in metric names
    /// become underscores; histograms surface as summaries with
    /// `quantile` labels plus `_sum`/`_count` series. Each metric
    /// family gets `# HELP` (carrying the original dotted name) and
    /// `# TYPE` lines, and label values are escaped per the exposition
    /// spec (backslash, double quote, newline).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<(String, &str)> = None;
        let mut type_line = |out: &mut String, name: &str, orig: &str, kind: &'static str| {
            if last_type
                .as_ref()
                .is_none_or(|(n, k)| n != name || *k != kind)
            {
                let _ = writeln!(out, "# HELP {name} SmartWatch metric `{orig}`.");
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_type = Some((name.to_string(), kind));
            }
        };
        for (id, v) in &self.counters {
            let name = prom_name(&id.name);
            type_line(&mut out, &name, &id.name, "counter");
            let _ = writeln!(out, "{}{} {v}", name, prom_labels(&id.labels, None));
        }
        for (id, v) in &self.gauges {
            let name = prom_name(&id.name);
            type_line(&mut out, &name, &id.name, "gauge");
            let _ = writeln!(out, "{}{} {v}", name, prom_labels(&id.labels, None));
        }
        for (id, h) in &self.hists {
            let name = prom_name(&id.name);
            type_line(&mut out, &name, &id.name, "summary");
            for (q, v) in [
                ("0.5", h.p50),
                ("0.9", h.p90),
                ("0.99", h.p99),
                ("0.999", h.p999),
            ] {
                let _ = writeln!(
                    out,
                    "{}{} {v}",
                    name,
                    prom_labels(&id.labels, Some(("quantile", q)))
                );
            }
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                name,
                prom_labels(&id.labels, None),
                h.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                name,
                prom_labels(&id.labels, None),
                h.count
            );
        }
        out
    }
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escape a label value per the exposition format: backslash, double
/// quote and newline must be backslash-escaped inside the quotes.
fn prom_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    fn sample() -> Registry {
        let r = Registry::new();
        r.counter("snic.cache.hits", &[("policy", "lru")]).add(10);
        r.counter("snic.cache.miss", &[]).add(3);
        r.gauge("core.escalation.rate", &[]).set(0.125);
        let h = r.histogram("host.agg.latency_ns", &[]);
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        r
    }

    #[test]
    fn json_schema_and_lookup() {
        let snap = sample().snapshot();
        let v = snap.to_json_value();
        assert_eq!(
            v["counters"]["snic.cache.hits{policy=lru}"].as_u64(),
            Some(10)
        );
        assert_eq!(v["gauges"]["core.escalation.rate"].as_f64(), Some(0.125));
        assert_eq!(
            v["histograms"]["host.agg.latency_ns"]["count"].as_u64(),
            Some(100)
        );
        assert_eq!(snap.counter("snic.cache.miss"), Some(3));
        assert!(snap.histogram("host.agg.latency_ns").unwrap().p50 >= 50_000);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let p = sample().snapshot().to_prometheus();
        assert!(p.contains("# HELP snic_cache_hits SmartWatch metric `snic.cache.hits`."));
        assert!(p.contains("# TYPE snic_cache_hits counter"));
        assert!(p.contains("snic_cache_hits{policy=\"lru\"} 10"));
        assert!(p.contains("# TYPE core_escalation_rate gauge"));
        assert!(p.contains("# HELP host_agg_latency_ns SmartWatch metric `host.agg.latency_ns`."));
        assert!(p.contains("# TYPE host_agg_latency_ns summary"));
        assert!(p.contains("host_agg_latency_ns{quantile=\"0.99\"}"));
        assert!(p.contains("host_agg_latency_ns_count 100"));
        // HELP/TYPE appear once per family, not once per series.
        assert_eq!(p.matches("# TYPE snic_cache_hits counter").count(), 1);
        assert_eq!(p.matches("# HELP host_agg_latency_ns ").count(), 1);
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let r = Registry::new();
        r.counter("evil", &[("path", "C:\\tmp\\x")]).add(1);
        r.counter("evil", &[("quote", "say \"hi\"")]).add(2);
        r.counter("evil", &[("nl", "a\nb")]).add(3);
        r.counter("evil", &[("clean", "ok")]).add(4);
        let p = r.snapshot().to_prometheus();
        assert!(p.contains("evil{path=\"C:\\\\tmp\\\\x\"} 1"), "{p}");
        assert!(p.contains("evil{quote=\"say \\\"hi\\\"\"} 2"), "{p}");
        assert!(p.contains("evil{nl=\"a\\nb\"} 3"), "{p}");
        assert!(p.contains("evil{clean=\"ok\"} 4"));
        assert!(!p.contains('\u{0}'));
        // Every non-comment line still has exactly one unescaped space
        // separating series from value — i.e. the exposition parses.
        for line in p.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("series SP value");
            assert!(!series.is_empty() && value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn deterministic_json() {
        let a = sample().snapshot().to_json();
        let b = sample().snapshot().to_json();
        assert_eq!(a, b);
    }
}
