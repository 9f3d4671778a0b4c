//! Baseline gating shared by the `perf_gate`, `sampled_fleet` and
//! `serve_bench` binaries: read a committed `BENCH_*.json` and derive the
//! floor a fresh measurement must not fall below.

/// Pulls `"key": <number>` out of a flat JSON object (hand-rolled: the
/// gate must not trust a vendored parser with its own gate inputs).
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One baseline key's committed value and the floor derived from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floor {
    /// The value recorded in the baseline file.
    pub base: f64,
    /// `base × (1 − max_regress)`: a fresh value below this fails.
    pub floor: f64,
}

/// A committed baseline file and the regression allowed against it.
#[derive(Debug)]
pub struct Baseline {
    path: String,
    text: String,
    max_regress: f64,
}

impl Baseline {
    /// Reads the baseline at `path`, allowing `max_regress` (a fraction)
    /// of regression against each gated key.
    ///
    /// # Panics
    ///
    /// If the file cannot be read; the message names the file.
    pub fn read(path: &str, max_regress: f64) -> Baseline {
        Baseline {
            path: path.to_string(),
            text: std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read baseline {path}: {e}")),
            max_regress,
        }
    }

    /// The floor for `key`, or `None` when the baseline does not record
    /// it (a gate that arms only once a baseline carries its key).
    pub fn floor(&self, key: &str) -> Option<Floor> {
        json_f64(&self.text, key).map(|base| Floor {
            base,
            floor: base * (1.0 - self.max_regress),
        })
    }

    /// The floor for a key the baseline must record.
    ///
    /// # Panics
    ///
    /// If the baseline lacks `key`; the message names the file and key.
    pub fn required_floor(&self, key: &str) -> Floor {
        self.floor(key)
            .unwrap_or_else(|| panic!("baseline {} has no {key}", self.path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "{\n  \"bench\": \"perf_gate\",\n  \"machine_ticks_per_sec\": 1200000,\n  \"keepalive_rps\": 5.5e3\n}\n";

    fn baseline(path: &str, max_regress: f64) -> Baseline {
        Baseline {
            path: path.to_string(),
            text: TEXT.to_string(),
            max_regress,
        }
    }

    #[test]
    fn json_f64_reads_flat_numbers() {
        assert_eq!(json_f64(TEXT, "machine_ticks_per_sec"), Some(1_200_000.0));
        assert_eq!(json_f64(TEXT, "keepalive_rps"), Some(5_500.0));
        assert_eq!(json_f64(TEXT, "bench"), None);
        assert_eq!(json_f64(TEXT, "missing"), None);
    }

    #[test]
    fn floor_is_base_times_one_minus_max_regress() {
        let b = baseline("BENCH_5.json", 0.30);
        let f = b.required_floor("machine_ticks_per_sec");
        assert_eq!(f.base, 1_200_000.0);
        assert_eq!(f.floor, 1_200_000.0 * (1.0 - 0.30));
        assert_eq!(b.floor("sampled_ticks_per_sec"), None);
    }

    #[test]
    #[should_panic(expected = "baseline BENCH_9.json has no effective_fleet_ticks_per_sec")]
    fn missing_required_key_is_reported_by_name() {
        baseline("BENCH_9.json", 0.50).required_floor("effective_fleet_ticks_per_sec");
    }
}
