//! The metric registry backing a [`crate::Telemetry`] handle.
//!
//! Metrics are keyed by `(name, sorted label pairs)` in `BTreeMap`s so the
//! export order is deterministic regardless of registration order. The
//! registry is only locked at registration and export time — hot-path
//! updates go straight to the shared atomic cells.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::events::EventRing;
use crate::metrics::{Counter, CounterCell, Gauge, GaugeCell, Histo, HistoCell};
use crate::sync::MutexExt;

/// Key of one metric series: name plus label pairs sorted by label key.
pub(crate) type SeriesKey = (String, Vec<(String, String)>);

/// Shared state behind an enabled [`crate::Telemetry`] handle.
#[derive(Debug)]
pub(crate) struct Registry {
    pub(crate) counters: Mutex<BTreeMap<SeriesKey, Arc<CounterCell>>>,
    pub(crate) gauges: Mutex<BTreeMap<SeriesKey, Arc<GaugeCell>>>,
    pub(crate) histograms: Mutex<BTreeMap<SeriesKey, Arc<HistoCell>>>,
    pub(crate) events: EventRing,
    /// Creation instant; event timestamps are microseconds since this.
    pub(crate) started: Instant,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: EventRing::new(crate::events::DEFAULT_EVENT_CAPACITY),
            started: Instant::now(),
        }
    }

    pub(crate) fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = series_key(name, labels);
        let cell = Arc::clone(self.counters.locked().entry(key).or_default());
        Counter(Some(cell))
    }

    pub(crate) fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = series_key(name, labels);
        let cell = Arc::clone(self.gauges.locked().entry(key).or_default());
        Gauge(Some(cell))
    }

    pub(crate) fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histo {
        let key = series_key(name, labels);
        let cell = Arc::clone(self.histograms.locked().entry(key).or_default());
        Histo(Some(cell))
    }

    pub(crate) fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }
}

/// Builds the canonical series key: labels sorted by key name so that
/// `[("b","2"),("a","1")]` and `[("a","1"),("b","2")]` are one series.
pub(crate) fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut pairs: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    pairs.sort();
    (name.to_string(), pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_series_shares_a_cell() {
        let reg = Registry::new();
        let a = reg.counter("cpi_test_total", &[("k", "v")]);
        let b = reg.counter("cpi_test_total", &[("k", "v")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn label_order_is_canonical() {
        let reg = Registry::new();
        let a = reg.gauge("cpi_g", &[("b", "2"), ("a", "1")]);
        let b = reg.gauge("cpi_g", &[("a", "1"), ("b", "2")]);
        a.set(7.5);
        assert_eq!(b.get(), 7.5);
    }

    #[test]
    fn distinct_labels_are_distinct_series() {
        let reg = Registry::new();
        let a = reg.counter("cpi_c", &[("x", "1")]);
        let b = reg.counter("cpi_c", &[("x", "2")]);
        a.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
    }
}
