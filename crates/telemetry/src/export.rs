//! Exporters: Prometheus text format and JSON snapshots.
//!
//! The Prometheus exporter emits one `# TYPE` header per metric family and
//! one sample line per series, in deterministic (sorted) order.
//! Histograms export as summaries: `{quantile="0.5"|"0.95"|"0.99"}` lines
//! (only while non-empty — a quantile of nothing is undefined), plus
//! `_sum` and `_count`. Every emitted line matches
//! `^# |^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$`, which the CI smoke job
//! enforces; in particular metric names contain no digits and values are
//! never NaN/inf (non-finite sums are clamped to 0).

use std::fmt::Write as _;

use serde::{Number, Value};

use crate::registry::{Registry, SeriesKey};
use crate::sync::MutexExt;

/// Quantiles reported for every histogram.
pub const EXPORT_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote and newline must be escaped inside the quoted
/// value (an unescaped `"` in a job-name label corrupts the scrape).
fn escape_label_value(v: &str) -> String {
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

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Renders the full registry as Prometheus text exposition format.
pub(crate) fn prometheus_text(reg: &Registry) -> String {
    fn header(out: &mut String, last_family: &mut String, name: &str, kind: &str) {
        if last_family != name {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            name.clone_into(last_family);
        }
    }

    let mut out = String::new();
    let mut last_family = String::new();
    for ((name, labels), cell) in reg.counters.locked().iter() {
        header(&mut out, &mut last_family, name, "counter");
        let _ = writeln!(out, "{name}{} {}", label_block(labels, None), cell.get());
    }
    last_family.clear();
    for ((name, labels), cell) in reg.gauges.locked().iter() {
        header(&mut out, &mut last_family, name, "gauge");
        let _ = writeln!(
            out,
            "{name}{} {}",
            label_block(labels, None),
            finite(cell.get())
        );
    }
    last_family.clear();
    for ((name, labels), cell) in reg.histograms.locked().iter() {
        header(&mut out, &mut last_family, name, "summary");
        if cell.count() > 0 {
            for q in EXPORT_QUANTILES {
                if let Some(v) = cell.quantile(q) {
                    let _ = writeln!(
                        out,
                        "{name}{} {}",
                        label_block(labels, Some(("quantile", &format!("{q}")))),
                        finite(v)
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "{name}_sum{} {}",
            label_block(labels, None),
            finite(cell.sum())
        );
        let _ = writeln!(
            out,
            "{name}_count{} {}",
            label_block(labels, None),
            cell.count()
        );
    }
    out
}

fn series_name(key: &SeriesKey) -> String {
    let (name, labels) = key;
    format!("{name}{}", label_block(labels, None))
}

/// Renders the full registry (metrics + recent events) as a JSON
/// [`Value`] tree suitable for `serde_json::to_string`.
pub(crate) fn json_snapshot(reg: &Registry) -> Value {
    let counters: Vec<(String, Value)> = reg
        .counters
        .locked()
        .iter()
        .map(|(key, cell)| {
            (
                series_name(key),
                Value::Number(Number::from_u64(cell.get())),
            )
        })
        .collect();
    let gauges: Vec<(String, Value)> = reg
        .gauges
        .locked()
        .iter()
        .map(|(key, cell)| (series_name(key), json_f64(cell.get())))
        .collect();
    let histograms: Vec<(String, Value)> = reg
        .histograms
        .locked()
        .iter()
        .map(|(key, cell)| {
            let mut fields = vec![
                (
                    "count".to_string(),
                    Value::Number(Number::from_u64(cell.count())),
                ),
                ("sum".to_string(), json_f64(cell.sum())),
            ];
            for q in EXPORT_QUANTILES {
                let label = format!("p{}", (q * 100.0).round() as u64);
                let v = cell.quantile(q).map(json_f64).unwrap_or(Value::Null);
                fields.push((label, v));
            }
            (series_name(key), Value::Object(fields))
        })
        .collect();
    let events: Vec<Value> = reg
        .events
        .snapshot()
        .into_iter()
        .map(|e| {
            Value::Object(vec![
                (
                    "at_us".to_string(),
                    Value::Number(Number::from_u64(e.at_us)),
                ),
                ("kind".to_string(), Value::String(e.kind)),
                ("detail".to_string(), Value::String(e.detail)),
            ])
        })
        .collect();

    Value::Object(vec![
        (
            "elapsed_us".to_string(),
            Value::Number(Number::from_u64(reg.elapsed_us())),
        ),
        ("counters".to_string(), Value::Object(counters)),
        ("gauges".to_string(), Value::Object(gauges)),
        ("histograms".to_string(), Value::Object(histograms)),
        ("events".to_string(), Value::Array(events)),
        (
            "events_total".to_string(),
            Value::Number(Number::from_u64(reg.events.total())),
        ),
    ])
}

fn json_f64(v: f64) -> Value {
    Number::from_f64(v)
        .map(Value::Number)
        .unwrap_or(Value::Null)
}

/// Renders a [`Value`] tree as compact JSON text.
///
/// The vendored `serde_json::to_string` is generic over `Serialize`,
/// which `Value` itself does not implement, so the exporter renders its
/// already-assembled tree directly.
pub(crate) fn render_json(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
