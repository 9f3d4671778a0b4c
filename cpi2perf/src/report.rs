//! Result lines, the steadiness report (N runs per workload, each
//! metric's median, quartiles and range) and the comparison of two
//! reports.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::run::{Metric, RunResult};

/// One metric as printed on the result line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Value {
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The last line a run prints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Value>,
}

impl ResultLine {
    /// The line for a run.
    pub fn of(r: &RunResult) -> ResultLine {
        ResultLine {
            correct: r.failed() == 0,
            attempted: r.attempted().max(1),
            failed: r.failed(),
            metrics: r
                .metrics
                .iter()
                .map(|Metric { name, unit, value }| {
                    (
                        name.clone(),
                        Value {
                            value: *value,
                            unit: (*unit).to_string(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// The line as one JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("result line serializes")
    }
}

/// Quartiles as Python's `statistics.quantiles(data, n=4)` computes
/// them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    Some(out)
}

/// Median, quartiles and range of one metric over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    /// Runs.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Spread {
    /// Summarizes `values` (at least two).
    pub fn of(values: &[f64]) -> Option<Spread> {
        let [q1, median, q3] = quartiles(values)?;
        Some(Spread {
            n: values.len(),
            q1,
            median,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            if self.q3 == self.q1 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// A steadiness report: the environment and every run's result line,
/// by workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Environment fingerprint.
    pub fingerprint: BTreeMap<String, String>,
    /// Result lines by workload, in run order.
    pub runs: BTreeMap<String, Vec<ResultLine>>,
}

impl Report {
    /// Per-workload, per-metric spreads.
    pub fn spreads(&self) -> BTreeMap<String, BTreeMap<String, (String, Spread)>> {
        let mut out = BTreeMap::new();
        for (w, lines) in &self.runs {
            let mut per: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
            for l in lines {
                for (name, v) in &l.metrics {
                    let e = per
                        .entry(name.clone())
                        .or_insert((v.unit.clone(), Vec::new()));
                    e.1.push(v.value);
                }
            }
            let spreads = per
                .into_iter()
                .filter_map(|(name, (unit, vals))| Spread::of(&vals).map(|s| (name, (unit, s))))
                .collect();
            out.insert(w.clone(), spreads);
        }
        out
    }

    /// The report as a table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (w, metrics) in self.spreads() {
            let runs = &self.runs[&w];
            let bad = runs.iter().filter(|l| !l.correct).count();
            s.push_str(&format!(
                "== {w}: {} runs, {} with failed checks ==\n{:<30} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>9}\n",
                runs.len(),
                bad,
                "metric",
                "unit",
                "median",
                "q1",
                "q3",
                "min",
                "max",
                "iqr/med"
            ));
            for (name, (unit, sp)) in metrics {
                s.push_str(&format!(
                    "{name:<30} {unit:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>9.4}\n",
                    sp.median,
                    sp.q1,
                    sp.q3,
                    sp.min,
                    sp.max,
                    sp.rel_iqr()
                ));
            }
        }
        s
    }
}

/// An end-to-end metric's regression rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [Rule; 7] = [
    rule("setup_s", "s", false, 0.25),
    rule("machine_ticks_per_s", "1/s", true, 0.25),
    rule("tick_ms_p99", "ms", false, 0.25),
    rule("peak_rss_mb", "MiB", false, 0.25),
    rule("ident_precision", "ratio", true, 0.1),
    rule("ident_recall", "ratio", true, 0.25),
    rule("ok_ratio", "ratio", true, 0.01),
];

const fn rule(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Rule {
    Rule {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// Compares two reports metric by metric. A fingerprint mismatch is
/// reported instead of a verdict. Returns the text and whether every
/// end-to-end metric held within its bound.
pub fn compare(base: &Report, new: &Report) -> (String, bool) {
    let mut s = String::new();
    let mismatched: Vec<String> = base
        .fingerprint
        .iter()
        .filter(|(k, v)| new.fingerprint.get(*k) != Some(v))
        .map(|(k, v)| {
            format!(
                "{k}: {v} vs {}",
                new.fingerprint.get(k).map_or("missing", String::as_str)
            )
        })
        .collect();
    if !mismatched.is_empty() {
        s.push_str("fingerprint mismatch; the reports are not comparable:\n");
        for m in mismatched {
            s.push_str(&format!("  {m}\n"));
        }
        return (s, false);
    }
    let (a, b) = (base.spreads(), new.spreads());
    let mut ok = true;
    for (w, am) in &a {
        let Some(bm) = b.get(w) else {
            s.push_str(&format!("{w}: missing from the second report\n"));
            ok = false;
            continue;
        };
        for r in END_TO_END {
            let (Some((_, x)), Some((_, y))) = (am.get(r.name), bm.get(r.name)) else {
                continue;
            };
            let worse = if r.higher_is_better {
                (x.median - y.median) / x.median.abs().max(f64::MIN_POSITIVE)
            } else {
                (y.median - x.median) / x.median.abs().max(f64::MIN_POSITIVE)
            };
            let verdict = if worse <= r.bound {
                "ok"
            } else if x.rel_iqr() > r.bound {
                ok = false;
                "unresolved (spread above bound)"
            } else {
                ok = false;
                "WORSE"
            };
            s.push_str(&format!(
                "{w:<12} {:<22} {:>14.6} -> {:>14.6} worse by {:>8.4} (bound {:.2}) {verdict}\n",
                r.name, x.median, y.median, worse, r.bound
            ));
        }
    }
    (s, ok)
}
